//! The message buffer: per-channel FIFO delivery over per-sender send logs.
//!
//! The paper's model places sent messages into a "message buffer" from which
//! the adversary chooses what to deliver and when. Every ordered
//! `(sender, recipient)` pair is a dedicated FIFO channel — so a recipient
//! always correctly identifies the sender, and messages on a single channel
//! are delivered in order (a harmless strengthening; the adversary still
//! fully controls interleaving across channels).
//!
//! # Send once, address by cursor
//!
//! Every shipped protocol is fully communicative: each send is a broadcast
//! to all `n` or a multicast to a committee, never a lone unicast. The
//! buffer is therefore organised around the *send*, not the recipient. Each
//! sender owns a **lane** whose **log** holds one entry per send — the
//! payload, its chain tag and its send time, stored once however many
//! processors it addresses — and recipients only hold positions in that log:
//!
//! * A **broadcast** is addressed implicitly. The lane lists the log indices
//!   of its broadcasts, and each channel of the lane holds a *cursor* into
//!   that list: the broadcasts at or past the cursor are the ones this
//!   recipient has not received yet. Sending a broadcast is one log push
//!   whatever `n` is; delivering it to one recipient advances one cursor.
//! * A **unicast or multicast** names its recipients, so no cursor can stand
//!   in for them: the entry's 4-byte log index is pushed onto an explicit
//!   index queue of each listed channel — O(|recipients|), independent of
//!   `n`. Duplicate ids in a multicast set enqueue one index per occurrence.
//!
//! A channel's FIFO order is log order, so its head is whichever of "front
//! of the index queue" and "broadcast under the cursor" was logged first.
//! Delivery hands out a `&Payload` borrowed from the log — nothing is cloned,
//! moved or reference-counted on the way — one message at a time
//! ([`MessageBuffer::pop_message`]), a whole channel at once
//! ([`MessageBuffer::drain`], a window's receiving phase per recipient), or,
//! for a window whose one sender set every recipient shares, a lane's
//! broadcasts listed once for all of them and the lane settled once
//! (`lend_shared`).
//!
//! **Recycling.** A lane whose pending count is zero has nothing left that
//! points into its log, so the next send on it (or the next
//! [`MessageBuffer::reset`] / [`MessageBuffer::discard_undelivered`])
//! rewinds the log and the cursors, keeping every allocation. Memory is thus
//! bounded by the sends made since the lane last drained, as an entry per
//! in-flight message was before. A rewound log keeps its slots for the next
//! sends to overwrite (`Log`), so a payload that owns no heap memory is
//! never dropped at all.
//!
//! # One channel layout
//!
//! A lane allocates what its traffic names and nothing else: its cursor row
//! (one `u32` per processor) on its first broadcast, its recipient → queue
//! table (`slots`, one `u32` per processor, zero for "none") on its first
//! unicast or multicast, and an index queue on the first message that names
//! a recipient. The table makes the lookup O(1); a sorted list of the named
//! ids beside it gives scans their identity order. Memory is
//! O(n + n · senders that broadcast or multicast + named channels): nothing
//! is quadratic in `n`, so the same buffer serves a committee at
//! `n = 10 000`.
//!
//! It is also the fast layout at the E-series sizes. Every protocol the
//! paper studies is fully communicative — each send a broadcast — so in a
//! windowed run no index queue ever holds a message. A grid preallocating
//! `n` queues per lane only made every channel drain load and clear an empty
//! queue header; without it, the window's `n · |S|` drains touch the cursor
//! row and the log alone.
//!
//! The layout is pinned against a `BTreeMap` reference model operation by
//! operation ([`MessageBuffer::check_lanes`] holding the lanes' own
//! bookkeeping after each one), and a per-sender `live` bitset lets
//! whole-buffer scans ([`MessageBuffer::next_pending_channel_where`]) skip
//! idle senders sixty-four at a time.
//!
//! The *chain tag* of a send is the causal depth assigned at send time (the
//! length of the longest message chain ending in the send); its *send-time
//! stamp* is the buffer clock value ([`MessageBuffer::set_now`]) at enqueue.
//! The asynchronous scheduler uses the chain tags to measure running time as
//! the paper's Section 5 does; the partial-synchrony scheduler uses the
//! send-time stamps to enforce its post-GST bounded-delay guarantee. Window
//! executions ignore both.

use std::collections::VecDeque;

use agreement_model::{CommitteeMsg, Payload, ProcessorId};

/// One send in a lane's log, shared by every recipient it addresses.
#[derive(Debug, Clone)]
struct Entry {
    payload: Payload,
    chain: u64,
    sent_at: u64,
    /// The entry's place in the lane's FIFO order: its own log index, except
    /// for a [`MessageBuffer::corrupt_head`] replacement, which is logged
    /// late but takes the place of the entry it stands in for.
    order: u32,
}

/// The channel layout of a [`MessageBuffer`]: there is one (see the module
/// docs), so this type chooses nothing.
///
/// It survives only for the benchmark harness, which still passes
/// `ScenarioSpec::buffer` to [`MessageBuffer::with_choice`] (from
/// `benchmark/src/layers.rs`) and to
/// [`TrialWorkspace::set_buffer_choice`](crate::TrialWorkspace::set_buffer_choice)
/// (from `benchmark/src/workloads.rs`). Once those two calls go, so does the
/// type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BufferChoice {
    /// Cursor rows, slot tables and index queues allocated as traffic names
    /// them.
    #[default]
    Lazy,
}

/// A lane's log: its entries in send order, in slots that outlive them.
///
/// Rewinding the log ([`Log::rewind`]) keeps every slot, and the next sends
/// overwrite them. An entry whose payload owns no heap memory — every
/// payload but a reliable-broadcast wrapper or opaque bytes — is overwritten
/// without running its drop glue, which is a call per entry (the payload
/// type is recursive, so it is never inlined); an entry that owns some is
/// dropped when its slot is reused, or with the buffer.
#[derive(Debug, Clone, Default)]
struct Log {
    /// The slots; the first `len` hold the log, the rest entries it has
    /// rewound past.
    slots: Vec<Entry>,
    len: usize,
}

impl Log {
    /// Number of entries logged since the last rewind.
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was logged since the last rewind.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `entry`, into the next rewound slot if there is one.
    #[inline(always)]
    fn push(&mut self, entry: Entry) {
        match self.slots.get_mut(self.len) {
            // Nothing to free: skip the drop glue.
            Some(slot) if !owns_heap(&slot.payload) => {
                std::mem::forget(std::mem::replace(slot, entry))
            }
            Some(slot) => *slot = entry,
            None => self.slots.push(entry),
        }
        self.len += 1;
    }

    /// Forgets every entry, keeping the slots for the next sends.
    #[inline(always)]
    fn rewind(&mut self) {
        self.len = 0;
    }

    /// The slots' heap capacity, in entries.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

impl std::ops::Index<usize> for Log {
    type Output = Entry;

    #[inline(always)]
    fn index(&self, i: usize) -> &Entry {
        debug_assert!(i < self.len, "entry {i} of a log of {}", self.len);
        &self.slots[i]
    }
}

/// Whether dropping `payload` frees heap memory. Exhaustive on purpose: a
/// new payload variant must say whether it owns any.
#[inline(always)]
fn owns_heap(payload: &Payload) -> bool {
    match payload {
        Payload::Report { .. }
        | Payload::Proposal { .. }
        | Payload::BrachaVote { .. }
        | Payload::Committee(CommitteeMsg::Proposal { .. } | CommitteeMsg::Announce { .. }) => {
            false
        }
        Payload::Rbc { .. } | Payload::Opaque(_) => true,
    }
}

/// One item of a shared window's receiving phase, as
/// [`MessageBuffer::lend_shared`] lists them: what each recipient receives
/// from one sender.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lent {
    /// Entry `index` of `sender`'s log, a broadcast every recipient receives
    /// (the lane is settled already).
    Entry {
        /// The lane's sender.
        sender: ProcessorId,
        /// The entry's index in the lane's log.
        index: u32,
    },
    /// Everything `sender` has pending to the recipient, drained from its
    /// channel ([`MessageBuffer::drain`]).
    Channel(ProcessorId),
}

/// Which of a channel's two sources holds a given message.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The explicit index queue in this slot of the lane.
    Queue(usize),
    /// The lane's broadcast list, through the channel's cursor.
    Cursor,
}

/// One sender's channels: the log of its sends plus, per recipient, a cursor
/// into the lane's broadcasts and an index queue of the unicasts and
/// multicasts that named it.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// One entry per send since the lane last recycled.
    log: Log,
    /// Log indices of the broadcast entries, ascending.
    broadcasts: Vec<u32>,
    /// `cursors[r]` counts the broadcasts recipient `r` is past. Empty until
    /// the lane's first broadcast, then one entry per processor the buffer
    /// covers.
    cursors: Vec<u32>,
    /// Recipient ids with a materialized index queue, sorted ascending — the
    /// order scans visit them in.
    recipients: Vec<u32>,
    /// `slots[r]` is one more than the index in `queues` of recipient `r`'s
    /// index queue, zero while `r` has none. Empty until the lane first
    /// names a recipient, then allocated once, one entry per processor the
    /// buffer covers.
    slots: Vec<u32>,
    /// Log indices of unicast/multicast entries per named recipient, oldest
    /// first; `queues[i]` belongs to the recipient with `slots[r] == i + 1`,
    /// in the order the lane first named them. Kept once materialized.
    queues: Vec<VecDeque<u32>>,
    /// Total undelivered messages across the lane's channels.
    pending: usize,
}

impl Lane {
    /// Index in `queues` of recipient `r`'s index queue, if it exists.
    #[inline]
    fn slot(&self, r: usize) -> Option<usize> {
        (*self.slots.get(r)? as usize).checked_sub(1)
    }

    /// The index queue of recipient `r`, materialized on first use; `n` is
    /// the number of processors the buffer covers (`r < n`).
    #[inline]
    fn queue_mut(&mut self, r: usize, n: usize) -> &mut VecDeque<u32> {
        match self.slot(r) {
            Some(i) => &mut self.queues[i],
            None => self.materialize(r, n),
        }
    }

    /// The cold half of [`Lane::queue_mut`]: gives recipient `r` its index
    /// queue. The slot table is allocated here, whole, on the
    /// lane's first named recipient — a table grown as recipients show up
    /// would hold up to twice the capacity for the same entries.
    #[cold]
    fn materialize(&mut self, r: usize, n: usize) -> &mut VecDeque<u32> {
        debug_assert!(r < n, "recipient {r} outside the {n} processors covered");
        if self.slots.is_empty() {
            self.slots = vec![0; n];
        }
        let at = self
            .recipients
            .partition_point(|&named| (named as usize) < r);
        self.recipients.insert(at, r as u32);
        self.queues.push(VecDeque::new());
        self.slots[r] = self.queues.len() as u32;
        self.queues.last_mut().expect("just pushed")
    }

    /// Position in `broadcasts` of the first one recipient `r` has not
    /// received (past the end when the lane has no cursor row yet).
    #[inline]
    fn cursor(&self, r: usize) -> usize {
        self.cursors.get(r).map_or(usize::MAX, |&c| c as usize)
    }

    /// The message at position `queued` of an index queue merged, in FIFO
    /// order, with position `cast` of the broadcast list: where it comes
    /// from and its log index.
    #[inline]
    fn pick(&self, slot: Option<usize>, queued: usize, cast: usize) -> Option<(Source, usize)> {
        let from_queue = slot.and_then(|i| Some((i, *self.queues[i].get(queued)? as usize)));
        let from_cast = self.broadcasts.get(cast).map(|&b| b as usize);
        match (from_queue, from_cast) {
            (Some((_, e)), Some(b)) if self.log[e].order as usize > b => Some((Source::Cursor, b)),
            (Some((i, e)), _) => Some((Source::Queue(i), e)),
            (None, Some(b)) => Some((Source::Cursor, b)),
            (None, None) => None,
        }
    }

    /// The oldest undelivered message to recipient `r`.
    #[inline]
    fn head(&self, r: usize) -> Option<(Source, usize)> {
        self.pick(self.slot(r), 0, self.cursor(r))
    }

    /// Removes the oldest undelivered message to `r`, returning its log
    /// index. The entry stays in the log until the lane recycles.
    #[inline]
    fn pop(&mut self, r: usize) -> Option<usize> {
        let (source, idx) = self.head(r)?;
        match source {
            Source::Queue(i) => {
                self.queues[i].pop_front();
            }
            Source::Cursor => self.cursors[r] += 1,
        }
        self.pending -= 1;
        Some(idx)
    }

    /// Removes every undelivered message to `r`, handing each log entry to
    /// `f` oldest first, and returns how many there were: [`Lane::pop`]
    /// until `None`, with the channel found once rather than per message.
    #[inline]
    fn drain(&mut self, r: usize, f: impl FnMut(&Entry)) -> usize {
        let count = self.channel(r).map(f).count();
        // Everything was lent: the queue is spent, the cursor at the end.
        if let Some(i) = self.slot(r) {
            self.queues[i].clear();
        }
        if let Some(cursor) = self.cursors.get_mut(r) {
            *cursor = self.broadcasts.len() as u32;
        }
        self.pending -= count;
        count
    }

    /// Number of undelivered messages to recipient `r`.
    #[inline]
    fn pending_on(&self, r: usize) -> usize {
        let queued = self.slot(r).map_or(0, |i| self.queues[i].len());
        queued + self.broadcasts.len().saturating_sub(self.cursor(r))
    }

    /// Every undelivered message to `r`, oldest first.
    fn channel(&self, r: usize) -> impl Iterator<Item = &Entry> + '_ {
        let slot = self.slot(r);
        let (mut queued, mut cast) = (0, self.cursor(r));
        std::iter::from_fn(move || {
            let (source, idx) = self.pick(slot, queued, cast)?;
            match source {
                Source::Queue(_) => queued += 1,
                Source::Cursor => cast += 1,
            }
            Some(&self.log[idx])
        })
    }

    /// The first recipient in `[lo, hi)` with an undelivered message.
    fn next_pending(&self, lo: usize, hi: usize) -> Option<usize> {
        // Without broadcasts no cursor is behind: skip the row.
        let sent = self.broadcasts.len() as u32;
        let end = if sent == 0 { 0 } else { self.cursors.len() };
        let row = &self.cursors[lo.min(end)..hi.min(end)];
        let by_cursor = row.iter().position(|&c| c < sent).map(|i| lo + i);
        if by_cursor == Some(lo) {
            // No queue belongs to a recipient before `lo`: nothing beats it.
            return by_cursor;
        }
        // Only a queue before the cursor hit can beat it.
        let hi = by_cursor.unwrap_or(hi);
        let start = self.recipients.partition_point(|&r| (r as usize) < lo);
        let by_queue = self.recipients[start..]
            .iter()
            .map(|&r| r as usize)
            .take_while(|&r| r < hi)
            .find(|&r| !self.queues[self.slots[r] as usize - 1].is_empty());
        by_queue.or(by_cursor)
    }

    /// Appends an entry to the log and returns its index; `order` is `None`
    /// for a send, which takes its own index as its place in the order.
    #[inline(always)]
    fn append(&mut self, payload: Payload, chain: u64, sent_at: u64, order: Option<u32>) -> u32 {
        let idx = u32::try_from(self.log.len()).expect("lane log overflow");
        let order = order.unwrap_or(idx);
        self.log.push(Entry {
            payload,
            chain,
            sent_at,
            order,
        });
        idx
    }

    /// Forgets the log once nothing points into it (`pending == 0`), keeping
    /// every allocation.
    #[inline(always)]
    fn recycle(&mut self) {
        debug_assert_eq!(self.pending, 0, "recycled a lane with messages pending");
        self.log.rewind();
        if !self.broadcasts.is_empty() {
            self.broadcasts.clear();
            self.cursors.fill(0);
        }
    }

    /// Drops every undelivered message of the lane.
    fn clear(&mut self) {
        for queue in &mut self.queues {
            queue.clear();
        }
        self.pending = 0;
        self.recycle();
    }
}

/// Sets bit `i` of the packed bitset `words`.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of the packed bitset `words`.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// A FIFO buffer of undelivered messages with one channel per ordered
/// `(sender, recipient)` pair, stored as one send log per sender (see the
/// module docs).
#[derive(Debug, Clone, Default)]
pub struct MessageBuffer {
    /// One lane per sender, one sender per processor the buffer covers.
    lanes: Vec<Lane>,
    /// Bit `s` is set iff `lanes[s].pending > 0`.
    live: Vec<u64>,
    /// Bit `s` is set once `lanes[s]` has logged a send since the last
    /// [`MessageBuffer::reset`]: the lanes a reset has to clear, found
    /// without reading the `n - 20` lanes of a committee trial that never
    /// sent.
    sent: Vec<u64>,
    /// The clock value stamped onto entries as they are enqueued
    /// ([`MessageBuffer::set_now`]); schedulers that enforce delivery bounds
    /// keep it equal to the execution clock.
    now: u64,
    enqueued: u64,
    delivered: u64,
    dropped: u64,
}

impl MessageBuffer {
    /// Creates an empty buffer for processors `0..n`: `n` empty lanes, each
    /// allocating only as its traffic names recipients. The buffer never
    /// grows; [`MessageBuffer::reset`] re-shapes it for another `n`.
    pub fn with_processors(n: usize) -> Self {
        MessageBuffer {
            lanes: std::iter::repeat_with(Lane::default).take(n).collect(),
            live: vec![0; n.div_ceil(64)],
            sent: vec![0; n.div_ceil(64)],
            ..MessageBuffer::default()
        }
    }

    /// [`MessageBuffer::with_processors`]; the choice has one value (see
    /// [`BufferChoice`]).
    pub fn with_choice(n: usize, _choice: BufferChoice) -> Self {
        MessageBuffer::with_processors(n)
    }

    /// Clears the buffer for reuse by the next trial: leaves the state
    /// [`MessageBuffer::with_processors`] builds for `n`. With an unchanged
    /// `n` this allocates nothing and only touches the lanes that sent:
    /// logs, cursor rows and materialized index queues all stay warm, so
    /// steady-state traffic stops paying for them after the first trial.
    pub fn reset(&mut self, n: usize) {
        if n == self.lanes.len() {
            for (w, word) in self.sent.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let lane = &mut self.lanes[w * 64 + bits.trailing_zeros() as usize];
                    if !lane.log.is_empty() {
                        lane.clear();
                    }
                    bits &= bits - 1;
                }
            }
            self.live.fill(0);
        } else {
            *self = MessageBuffer::with_processors(n);
        }
        self.now = 0;
        self.enqueued = 0;
        self.delivered = 0;
        self.dropped = 0;
    }

    /// Sets the clock value stamped onto subsequently enqueued messages.
    /// The execution core keeps this equal to its scheduler clock so the
    /// partial-synchrony model can age pending messages exactly.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Appends one send addressing `fanout` channels to `sender`'s log —
    /// recycling the lane first if it has drained — and returns its log
    /// index. The caller addresses it (cursor or index queues).
    #[inline(always)]
    fn log_send(&mut self, sender: usize, payload: Payload, chain: u64, fanout: usize) -> u32 {
        let lane = &mut self.lanes[sender];
        if lane.pending == 0 {
            lane.recycle();
        }
        let idx = lane.append(payload, chain, self.now, None);
        lane.pending += fanout;
        self.enqueued += fanout as u64;
        set_bit(&mut self.live, sender);
        set_bit(&mut self.sent, sender);
        idx
    }

    /// Enqueues a single-recipient message: one log entry, one index on the
    /// recipient's queue.
    ///
    /// # Panics
    ///
    /// Panics if `sender` or `recipient` is not one of the `n` processors
    /// the buffer was sized for.
    #[inline]
    pub fn enqueue_unicast(
        &mut self,
        sender: ProcessorId,
        recipient: ProcessorId,
        payload: Payload,
        chain: u64,
    ) {
        self.multicast(sender, &[recipient], payload, chain);
    }

    /// Sends one payload to every processor the buffer covers, the sender
    /// included: one log entry and nothing per recipient — each channel of
    /// the lane finds it through its cursor.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not one of the `n` processors the buffer was
    /// sized for.
    #[inline(always)]
    pub fn broadcast(&mut self, sender: ProcessorId, payload: Payload, chain: u64) {
        let s = sender.index();
        let n = self.lanes.len();
        let idx = self.log_send(s, payload, chain, n);
        let lane = &mut self.lanes[s];
        lane.broadcasts.push(idx);
        if lane.cursors.is_empty() {
            lane.cursors.resize(n, 0);
        }
    }

    /// Sends one payload to a *set* of recipients: the multicast-to-set
    /// primitive committees are built on.
    ///
    /// The payload is logged **once** and each listed recipient's queue gets
    /// its 4-byte log index, so the cost is O(|recipients|) — independent of
    /// `n`. Only the addressed recipients' queues are ever materialized, so
    /// a committee of `k` among 10 000 processors touches `k` queues, not
    /// 10 000. An empty set is a no-op. Duplicate
    /// ids in `recipients` enqueue one message per occurrence, in slice
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the set is not empty and `sender` or one of `recipients`
    /// is not one of the `n` processors the buffer was sized for.
    #[inline]
    pub fn multicast(
        &mut self,
        sender: ProcessorId,
        recipients: &[ProcessorId],
        payload: Payload,
        chain: u64,
    ) {
        if recipients.is_empty() {
            return;
        }
        let s = sender.index();
        let idx = self.log_send(s, payload, chain, recipients.len());
        let n = self.lanes.len();
        let lane = &mut self.lanes[s];
        for to in recipients {
            lane.queue_mut(to.index(), n).push_back(idx);
        }
    }

    /// Removes the oldest undelivered message on the channel, maintaining
    /// the live bits and the delivered counter, and returns its log entry —
    /// which stays in the lane's log until the lane recycles.
    #[inline]
    fn pop_entry(&mut self, sender: ProcessorId, recipient: ProcessorId) -> Option<&Entry> {
        let s = sender.index();
        let lane = self.lanes.get_mut(s)?;
        let idx = lane.pop(recipient.index())?;
        if lane.pending == 0 {
            clear_bit(&mut self.live, s);
        }
        self.delivered += 1;
        Some(&lane.log[idx])
    }

    /// Removes and returns the oldest undelivered message from `sender` to
    /// `recipient`, if any. The payload is cloned out of the shared log
    /// entry; the engines deliver through [`MessageBuffer::pop_message`],
    /// which borrows it instead.
    #[inline]
    pub fn pop(&mut self, sender: ProcessorId, recipient: ProcessorId) -> Option<Payload> {
        self.pop_message(sender, recipient)
            .map(|(payload, _)| payload.clone())
    }

    /// Removes the oldest undelivered message on the channel, lending the
    /// caller its payload — borrowed from the sender's log, never cloned —
    /// and its chain tag.
    #[inline]
    pub fn pop_message(
        &mut self,
        sender: ProcessorId,
        recipient: ProcessorId,
    ) -> Option<(&Payload, u64)> {
        self.pop_entry(sender, recipient)
            .map(|entry| (&entry.payload, entry.chain))
    }

    /// [`MessageBuffer::pop_message`] on a channel known to hold a message:
    /// one [`MessageBuffer::owed_channels`] listed, popped no more often
    /// than it said. A channel without an index queue hands out the
    /// broadcast under its cursor directly, with nothing to merge.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty or outside the buffer.
    #[inline(always)]
    pub fn pop_owed(&mut self, sender: ProcessorId, recipient: ProcessorId) -> (&Payload, u64) {
        let (s, r) = (sender.index(), recipient.index());
        let lane = &mut self.lanes[s];
        let idx = match lane.slot(r) {
            None => {
                let cursor = &mut lane.cursors[r];
                let idx = lane.broadcasts[*cursor as usize] as usize;
                *cursor += 1;
                lane.pending -= 1;
                idx
            }
            Some(_) => lane.pop(r).expect("an owed message is pending"),
        };
        if lane.pending == 0 {
            clear_bit(&mut self.live, s);
        }
        self.delivered += 1;
        let entry = &lane.log[idx];
        (&entry.payload, entry.chain)
    }

    /// Removes *all* undelivered messages from `sender` to `recipient`,
    /// lending each one's payload and chain tag to `f`, oldest first, and
    /// returns how many there were. This is a receiving phase's bulk
    /// operation: it leaves the buffer exactly as calling
    /// [`MessageBuffer::pop_message`] until `None` would — counters, live
    /// bit, the log kept until the lane's next send — but finds the channel
    /// once instead of once per message and once more for the `None`.
    #[inline]
    pub fn drain(
        &mut self,
        sender: ProcessorId,
        recipient: ProcessorId,
        mut f: impl FnMut(&Payload, u64),
    ) -> usize {
        let s = sender.index();
        let Some(lane) = self.lanes.get_mut(s).filter(|lane| lane.pending > 0) else {
            return 0;
        };
        let count = lane.drain(recipient.index(), |entry| f(&entry.payload, entry.chain));
        if lane.pending == 0 {
            clear_bit(&mut self.live, s);
        }
        self.delivered += count as u64;
        count
    }

    /// Lends a shared window's deliveries: lists in `lent` (cleared first),
    /// in the order of `senders`, what every recipient receives from each
    /// of them, and settles each lane it lends entry by entry.
    ///
    /// A lane whose channels all hold the same messages — the broadcasts
    /// since it last recycled, every cursor still at the first of them, no
    /// index queue ever materialized — lists each broadcast's log index
    /// once ([`Lent::Entry`]) and is settled here, once, before anyone
    /// receives: its broadcast list empties under cursors that are all at
    /// zero already, its pending count goes to the delivered counter and its
    /// live bit clears. The log itself stays until the lane's next send, so
    /// each listed entry stays readable ([`MessageBuffer::lent`]) for the
    /// whole receiving phase. Any other lane with something pending lists
    /// one [`Lent::Channel`]: its channels may differ, so each recipient
    /// drains its own ([`MessageBuffer::drain`]).
    pub(crate) fn lend_shared(&mut self, senders: &[ProcessorId], lent: &mut Vec<Lent>) {
        lent.clear();
        let n = self.lanes.len();
        for &sender in senders {
            let s = sender.index();
            let lane = &mut self.lanes[s];
            if lane.pending == 0 {
                continue;
            }
            if !lane.recipients.is_empty() || lane.pending != n * lane.broadcasts.len() {
                lent.push(Lent::Channel(sender));
                continue;
            }
            lent.extend(
                lane.broadcasts
                    .iter()
                    .map(|&index| Lent::Entry { sender, index }),
            );
            lane.broadcasts.clear();
            self.delivered += lane.pending as u64;
            lane.pending = 0;
            clear_bit(&mut self.live, s);
        }
    }

    /// The payload and chain tag of entry `index` of `sender`'s log: a
    /// [`Lent::Entry`] of [`MessageBuffer::lend_shared`].
    #[inline(always)]
    pub(crate) fn lent(&self, sender: ProcessorId, index: u32) -> (&Payload, u64) {
        let entry = &self.lanes[sender.index()].log[index as usize];
        (&entry.payload, entry.chain)
    }

    /// Discards every undelivered message addressed to `recipient`.
    ///
    /// Used when a processor crashes: the model only requires delivery to
    /// processors that take infinitely many steps.
    pub fn drop_to(&mut self, recipient: ProcessorId) {
        let r = recipient.index();
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            if lane.pending == 0 {
                continue;
            }
            let removed = lane.pending_on(r);
            if removed == 0 {
                continue;
            }
            if let Some(i) = lane.slot(r) {
                lane.queues[i].clear();
            }
            if let Some(cursor) = lane.cursors.get_mut(r) {
                *cursor = lane.broadcasts.len() as u32;
            }
            lane.pending -= removed;
            self.dropped += removed as u64;
            if lane.pending == 0 {
                clear_bit(&mut self.live, s);
            }
        }
    }

    /// Replaces the payload of the oldest undelivered message on the channel,
    /// returning the original payload (the chain tag and send time are
    /// preserved). Used to model Byzantine corruption of a message in flight
    /// (the adversary may corrupt messages *sent by* corrupted processors).
    ///
    /// Corruption is per-channel: the replacement is logged as an entry of
    /// its own, taking the original's place in this channel's order only, so
    /// the other recipients of a broadcast or multicast still see the
    /// original.
    pub fn corrupt_head(
        &mut self,
        sender: ProcessorId,
        recipient: ProcessorId,
        replacement: Payload,
    ) -> Option<&Payload> {
        let (r, n) = (recipient.index(), self.lanes.len());
        let lane = self.lanes.get_mut(sender.index())?;
        let (source, original) = lane.head(r)?;
        let Entry {
            chain,
            sent_at,
            order,
            ..
        } = lane.log[original];
        let replaced = lane.append(replacement, chain, sent_at, Some(order));
        match source {
            Source::Queue(i) => lane.queues[i][0] = replaced,
            Source::Cursor => {
                lane.cursors[r] += 1;
                lane.queue_mut(r, n).push_front(replaced);
            }
        }
        Some(&lane.log[original].payload)
    }

    /// Discards every undelivered message in the buffer, returning how many
    /// were dropped.
    ///
    /// The window scheduler calls this at the start of every sending phase: an
    /// acceptable window only delivers messages "just sent" within it, so
    /// anything left over from the previous window is never delivered. Only
    /// lanes with pending messages are touched.
    pub fn discard_undelivered(&mut self) -> usize {
        let mut count = 0;
        for lane in self.lanes.iter_mut().filter(|lane| lane.pending > 0) {
            count += lane.pending;
            lane.clear();
        }
        self.live.fill(0);
        self.dropped += count as u64;
        count
    }

    /// Returns the number of undelivered messages from `sender` to `recipient`.
    #[inline]
    pub fn pending_on(&self, sender: ProcessorId, recipient: ProcessorId) -> usize {
        self.lanes
            .get(sender.index())
            .map_or(0, |lane| lane.pending_on(recipient.index()))
    }

    /// The log entry at the head of the channel, if any.
    #[inline]
    fn front(&self, sender: ProcessorId, recipient: ProcessorId) -> Option<&Entry> {
        let lane = self.lanes.get(sender.index())?;
        let (_, idx) = lane.head(recipient.index())?;
        Some(&lane.log[idx])
    }

    /// Returns the oldest undelivered payload on the channel without removing it.
    pub fn peek(&self, sender: ProcessorId, recipient: ProcessorId) -> Option<&Payload> {
        self.front(sender, recipient).map(|entry| &entry.payload)
    }

    /// The send-time stamp of the oldest undelivered message on the channel
    /// (the buffer clock value at its enqueue). Channels are FIFO and the
    /// clock is monotone, so the head is always the channel's oldest
    /// message. The partial-synchrony scheduler lists a sender's overdue
    /// channels with [`MessageBuffer::owed_channels`] instead of polling
    /// heads; the tests' reference scheduler polls them with this.
    pub fn head_sent_at(&self, sender: ProcessorId, recipient: ProcessorId) -> Option<u64> {
        self.front(sender, recipient).map(|entry| entry.sent_at)
    }

    /// Iterates over all `(sender, recipient, payload)` triples currently buffered,
    /// sender-major and oldest-first within each channel: the
    /// `(sender, recipient)`-keyed order of the original `BTreeMap` layout.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessorId, ProcessorId, &Payload)> + '_ {
        let n = self.lanes.len();
        let pending = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| lane.pending > 0);
        pending.flat_map(move |(s, lane)| {
            std::iter::successors(lane.next_pending(0, n), move |&r| {
                lane.next_pending(r + 1, n)
            })
            .flat_map(move |r| {
                lane.channel(r)
                    .map(move |entry| (ProcessorId::new(s), ProcessorId::new(r), &entry.payload))
            })
        })
    }

    /// A lower bound on the send-time stamp of everything `sender` still has
    /// pending, on any channel; `None` when it has nothing pending.
    ///
    /// The bound is the stamp of the first entry logged since the lane last
    /// recycled: the log is appended in clock order and a
    /// [`MessageBuffer::corrupt_head`] replacement inherits its original's
    /// stamp, so no entry of the log — pending or not — is older. It goes
    /// stale (stays low) while the lane never fully drains, which makes it a
    /// reason to *skip* a sender, never a substitute for
    /// [`MessageBuffer::owed_channels`].
    #[inline]
    pub fn pending_since(&self, sender: ProcessorId) -> Option<u64> {
        let lane = self.lanes.get(sender.index())?;
        (lane.pending > 0).then(|| lane.log[0].sent_at)
    }

    /// Lists in `owed` (cleared first), in ascending recipient order, each
    /// recipient that `sender` has messages pending to with a send stamp at
    /// most `bound`, and how many: popping that many off the channel
    /// ([`MessageBuffer::pop_owed`]) delivers exactly them. The
    /// partial-synchrony scheduler's owed deliveries.
    ///
    /// A channel's stamps never decrease along its FIFO order — the log is
    /// appended in clock order and a [`MessageBuffer::corrupt_head`]
    /// replacement takes both the place and the stamp of its original — so
    /// the messages at or below `bound` are a prefix of it. The due
    /// broadcasts are found by one binary search over the lane's broadcast
    /// list, and a channel owes the ones between its cursor and that point:
    /// one compare per cursor. A lane that has named a recipient adds, for
    /// each recipient with an index queue, the prefix of the queue at or
    /// below `bound`.
    #[inline]
    pub fn owed_channels(
        &self,
        sender: ProcessorId,
        bound: u64,
        owed: &mut Vec<(ProcessorId, usize)>,
    ) {
        owed.clear();
        let Some(lane) = self
            .lanes
            .get(sender.index())
            .filter(|lane| lane.pending > 0)
        else {
            return;
        };
        let due = |&idx: &u32| lane.log[idx as usize].sent_at <= bound;
        let cast = lane.broadcasts.partition_point(due);
        if lane.recipients.is_empty() {
            for (r, &cursor) in lane.cursors.iter().enumerate() {
                if (cursor as usize) < cast {
                    owed.push((ProcessorId::new(r), cast - cursor as usize));
                }
            }
            return;
        }
        // A lane that named a recipient has its slot table, one per processor.
        for r in 0..lane.slots.len() {
            let queued = lane
                .slot(r)
                .map_or(0, |i| lane.queues[i].partition_point(due));
            let count = cast.saturating_sub(lane.cursor(r)) + queued;
            if count > 0 {
                owed.push((ProcessorId::new(r), count));
            }
        }
    }

    /// Finds the first channel with a pending message at or after `cursor`
    /// in the sender-major round robin over the `n × n` channels — wrapping
    /// after `(n − 1, n − 1)` — whose endpoints the `admit` predicate
    /// accepts. Returns the cursor to resume from — the channel after the
    /// hit — plus the hit's endpoints, or `None` when no admitted channel has
    /// pending messages.
    ///
    /// `n` is the *caller's* channel space (the system size, which the
    /// engines size the buffer for); a cursor outside it starts from
    /// `(0, 0)`.
    ///
    /// The cursor's own channel is tried first, inline: a resumed round
    /// robin over broadcasts mostly finds the next recipient of the same
    /// broadcast pending behind the cursor it left. Only a miss — the
    /// channel empty, addressed by index queues alone, or not admitted —
    /// goes to the out-of-line scan, which skips idle senders sixty-four at
    /// a time through the live bitset and within a lane visits only its
    /// cursor row and materialized queues: amortized O(1) per delivery
    /// instead of O(n²).
    #[inline]
    pub fn next_pending_channel_where(
        &self,
        n: usize,
        cursor: ChannelCursor,
        admit: impl Fn(ProcessorId, ProcessorId) -> bool,
    ) -> Option<(ChannelCursor, ProcessorId, ProcessorId)> {
        let (s, r) = cursor.within(n)?;
        let own = self.lanes.get(s).is_some_and(|lane| {
            lane.cursor(r) < lane.broadcasts.len()
                && admit(ProcessorId::new(s), ProcessorId::new(r))
        });
        let hit = if own {
            Hit::new(s, r)
        } else if self.is_empty() {
            return None;
        } else {
            self.scan_from(n, s, r, &admit)?
        };
        let (s, r) = (hit.sender(), hit.recipient());
        Some((
            ChannelCursor::after(s, r, n),
            ProcessorId::new(s),
            ProcessorId::new(r),
        ))
    }

    /// The scan behind [`MessageBuffer::next_pending_channel_where`], from
    /// channel `(s0, r0)` on (both below `n`): the sender and recipient of
    /// the hit.
    ///
    /// Kept out of line, and its result one word ([`Hit`]), on purpose: this
    /// is the one call of an asynchronous step the optimizer does not inline,
    /// and the 32-byte `(cursor, from, to)` came back from it through the
    /// stack as 8-byte stores read by a 16-byte load — a load store
    /// forwarding cannot serve, 10 % of an n = 1 000 trial.
    #[inline(never)]
    fn scan_from(
        &self,
        n: usize,
        s0: usize,
        r0: usize,
        admit: &impl Fn(ProcessorId, ProcessorId) -> bool,
    ) -> Option<Hit> {
        let lanes = &self.lanes[..self.lanes.len().min(n)];
        // The cursor lane's recipients at or after the cursor; then every
        // other lane in cursor order — senders after the cursor, then
        // senders before it — skipping idle senders by the word through the
        // live bitset; last the cursor lane's recipients before the cursor.
        if let Some(hit) = scan_lane(lanes, s0, r0, n, admit) {
            return Some(hit);
        }
        if let Some(hit) = scan_live_range(lanes, &self.live, s0 + 1, n, n, admit) {
            return Some(hit);
        }
        if let Some(hit) = scan_live_range(lanes, &self.live, 0, s0, n, admit) {
            return Some(hit);
        }
        scan_lane(lanes, s0, 0, r0, admit)
    }

    /// [`MessageBuffer::next_pending_channel_where`] with every channel
    /// admitted.
    pub fn next_pending_channel(
        &self,
        n: usize,
        cursor: ChannelCursor,
    ) -> Option<(ChannelCursor, ProcessorId, ProcessorId)> {
        self.next_pending_channel_where(n, cursor, |_, _| true)
    }

    /// Total number of undelivered messages. O(1): maintained as the
    /// identity `enqueued - delivered - dropped`, which every mutation
    /// preserves.
    pub fn pending_total(&self) -> usize {
        (self.enqueued - self.delivered - self.dropped) as usize
    }

    /// Returns `true` when no messages are awaiting delivery.
    pub fn is_empty(&self) -> bool {
        self.pending_total() == 0
    }

    /// Number of messages ever enqueued.
    pub fn enqueued_count(&self) -> u64 {
        self.enqueued
    }

    /// Number of messages ever delivered (popped or drained).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of messages dropped because their recipient crashed.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Checks the lanes' bookkeeping, returning the first broken condition.
    ///
    /// Per lane: `pending` is what the cursor row and the index queues still
    /// address; every cursor is at most the broadcast count; the broadcast
    /// list ascends and every broadcast and queued index is inside the log;
    /// the named recipients ascend strictly, and `r` is among them exactly
    /// when `slots[r]` is nonzero, each naming a queue of its own. Across
    /// the buffer: a sender's live bit is set exactly when its lane has
    /// something pending, and the lanes' pending counts add up to
    /// `enqueued − delivered − dropped`. O(n · lanes that sent); a test and
    /// debugging aid, not something the engines call.
    pub fn check_lanes(&self) -> Result<(), String> {
        let mut total = 0;
        for (s, lane) in self.lanes.iter().enumerate() {
            lane.check()
                .map_err(|broken| format!("lane {s}: {broken}"))?;
            let live = self
                .live
                .get(s / 64)
                .is_some_and(|w| (w >> (s % 64)) & 1 == 1);
            if live != (lane.pending > 0) {
                let pending = lane.pending;
                return Err(format!("lane {s}: live bit {live} with {pending} pending"));
            }
            let sent = self
                .sent
                .get(s / 64)
                .is_some_and(|w| (w >> (s % 64)) & 1 == 1);
            if !sent && !lane.log.is_empty() {
                return Err(format!("lane {s}: a logged send without its sent bit"));
            }
            total += lane.pending as u64;
        }
        let outstanding = self.enqueued - self.delivered - self.dropped;
        if total != outstanding {
            return Err(format!(
                "lanes hold {total} pending, counters say {outstanding}"
            ));
        }
        Ok(())
    }
}

impl Lane {
    /// [`MessageBuffer::check_lanes`] for one lane.
    fn check(&self) -> Result<(), String> {
        let (logged, sent) = (self.log.len(), self.broadcasts.len());
        let ascending = |list: &[u32]| list.windows(2).all(|w| w[0] < w[1]);
        if let Some(c) = self.cursors.iter().find(|&&c| c as usize > sent) {
            return Err(format!("cursor at {c} past {sent} broadcasts"));
        }
        if !ascending(&self.broadcasts) || !ascending(&self.recipients) {
            return Err("broadcasts or recipients out of order".to_string());
        }
        let mut indices = self.broadcasts.iter().chain(self.queues.iter().flatten());
        if let Some(idx) = indices.find(|&&idx| idx as usize >= logged) {
            return Err(format!("index {idx} outside a log of {logged}"));
        }
        // Every named recipient owns a queue of its own, and nobody else has
        // a slot.
        let mut owned = vec![false; self.queues.len()];
        for &r in &self.recipients {
            match self.slot(r as usize).and_then(|i| owned.get_mut(i)) {
                Some(taken) if !*taken => *taken = true,
                _ => return Err(format!("recipient {r} has no queue of its own")),
            }
        }
        let named = self.slots.iter().filter(|&&slot| slot != 0).count();
        if named != self.recipients.len() || owned.contains(&false) {
            return Err(format!("{named} slots for {} queues", self.queues.len()));
        }
        let behind: usize = self.cursors.iter().map(|&c| sent - c as usize).sum();
        let queued: usize = self.queues.iter().map(VecDeque::len).sum();
        if self.pending != behind + queued {
            let pending = self.pending;
            return Err(format!(
                "pending {pending}, cursors {behind}, queues {queued}"
            ));
        }
        Ok(())
    }
}

/// A position in the sender-major round robin over the `n × n` channels:
/// the channel `(sender, recipient)` a scan
/// ([`MessageBuffer::next_pending_channel_where`]) tries first. The default
/// is channel `(0, 0)`; every scan hands back the channel after its hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCursor {
    sender: u32,
    recipient: u32,
}

impl ChannelCursor {
    /// The cursor at channel `from -> to`.
    pub fn at(from: ProcessorId, to: ProcessorId) -> Self {
        let id = |p: ProcessorId| u32::try_from(p.index()).unwrap_or(u32::MAX);
        ChannelCursor {
            sender: id(from),
            recipient: id(to),
        }
    }

    /// The channel after `(s, r)` in an `n × n` round robin: `(s, r + 1)`,
    /// the next sender's first channel past the last recipient, `(0, 0)`
    /// past the last channel.
    #[inline]
    fn after(s: usize, r: usize, n: usize) -> Self {
        let (s, r) = if r + 1 < n {
            (s, r + 1)
        } else if s + 1 < n {
            (s + 1, 0)
        } else {
            (0, 0)
        };
        // Both are below `n`, and a hit's endpoints fit a `u32` (see `Hit`).
        ChannelCursor {
            sender: s as u32,
            recipient: r as u32,
        }
    }

    /// The cursor's sender and recipient in an `n × n` round robin: as they
    /// are when both lie below `n`, `(0, 0)` otherwise, and `None` when
    /// there are no channels (`n == 0`).
    #[inline]
    fn within(self, n: usize) -> Option<(usize, usize)> {
        let (s, r) = (self.sender as usize, self.recipient as usize);
        if s < n && r < n {
            Some((s, r))
        } else {
            (n > 0).then_some((0, 0))
        }
    }
}

/// A pending channel as the scans report it: the sender's index in the high
/// half of one word, the recipient's in the low half (lanes index recipients
/// by `u32` throughout), so that an `Option` of it travels in two registers.
#[derive(Debug, Clone, Copy)]
struct Hit(u64);

impl Hit {
    fn new(sender: usize, recipient: usize) -> Hit {
        debug_assert!(sender <= u32::MAX as usize && recipient <= u32::MAX as usize);
        Hit((sender as u64) << 32 | recipient as u64)
    }

    fn sender(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn recipient(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }
}

/// Scans lane `s` for a pending, admitted channel to a recipient in
/// `[lo_r, hi_r)`, in ascending recipient order.
fn scan_lane(
    lanes: &[Lane],
    s: usize,
    lo_r: usize,
    hi_r: usize,
    admit: &impl Fn(ProcessorId, ProcessorId) -> bool,
) -> Option<Hit> {
    let lane = lanes.get(s).filter(|lane| lane.pending > 0)?;
    let from = ProcessorId::new(s);
    let mut lo = lo_r;
    while let Some(r) = lane.next_pending(lo, hi_r) {
        if admit(from, ProcessorId::new(r)) {
            return Some(Hit::new(s, r));
        }
        lo = r + 1;
    }
    None
}

/// Scans the lanes of senders in `[lo, hi)` (ascending, clamped to the lanes
/// that exist) that the `live` bitset marks as having pending messages, word
/// by word.
fn scan_live_range(
    lanes: &[Lane],
    live: &[u64],
    lo: usize,
    hi: usize,
    n: usize,
    admit: &impl Fn(ProcessorId, ProcessorId) -> bool,
) -> Option<Hit> {
    let hi = hi.min(lanes.len());
    if lo >= hi {
        return None;
    }
    let lo_word = lo / 64;
    let hi_word = (hi - 1) / 64;
    for (w, &bits) in live.iter().enumerate().take(hi_word + 1).skip(lo_word) {
        let mut word = bits;
        if w == lo_word {
            word &= !0u64 << (lo % 64);
        }
        if w == hi_word {
            let rem = hi - hi_word * 64;
            if rem < 64 {
                word &= (1u64 << rem) - 1;
            }
        }
        while word != 0 {
            let s = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if let Some(hit) = scan_lane(lanes, s, 0, n, admit) {
                return Some(hit);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{Bit, ProcessorRng};
    use std::collections::BTreeMap;
    use std::mem::size_of;

    fn id(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn report(round: u64) -> Payload {
        Payload::Report {
            round,
            value: Bit::Zero,
        }
    }

    /// Bytes of heap the buffer holds on to (capacities, not lengths).
    fn heap_bytes(buf: &MessageBuffer) -> usize {
        let per_lane = |lane: &Lane| {
            lane.log.capacity() * size_of::<Entry>()
                + (lane.broadcasts.capacity() + lane.cursors.capacity()) * size_of::<u32>()
                + (lane.recipients.capacity() + lane.slots.capacity()) * size_of::<u32>()
                + lane.queues.capacity() * size_of::<VecDeque<u32>>()
                + lane
                    .queues
                    .iter()
                    .map(|queue| queue.capacity() * size_of::<u32>())
                    .sum::<usize>()
        };
        buf.lanes.capacity() * size_of::<Lane>()
            + buf.lanes.iter().map(per_lane).sum::<usize>()
            + buf.live.capacity() * size_of::<u64>()
    }

    /// Log entries currently held across all lanes.
    fn logged(buf: &MessageBuffer) -> usize {
        buf.lanes.iter().map(|lane| lane.log.len()).sum()
    }

    #[test]
    fn enqueue_then_pop_is_fifo_per_channel() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.enqueue_unicast(id(0), id(1), report(2), 0);
        buf.enqueue_unicast(id(2), id(1), report(9), 0);
        assert_eq!(buf.pending_on(id(0), id(1)), 2);
        let first = buf.pop(id(0), id(1)).unwrap();
        assert_eq!(first.round(), Some(1));
        let second = buf.pop(id(0), id(1)).unwrap();
        assert_eq!(second.round(), Some(2));
        assert!(buf.pop(id(0), id(1)).is_none());
        // The other channel is untouched.
        assert_eq!(buf.pending_on(id(2), id(1)), 1);
    }

    #[test]
    fn chain_tags_ride_along_with_their_messages() {
        let mut buf = MessageBuffer::with_processors(2);
        buf.enqueue_unicast(id(0), id(1), report(1), 4);
        buf.enqueue_unicast(id(0), id(1), report(2), 9);
        let (first, chain) = buf.pop_message(id(0), id(1)).unwrap();
        assert_eq!(first.round(), Some(1));
        assert_eq!(chain, 4);
        let (_, chain) = buf.pop_message(id(0), id(1)).unwrap();
        assert_eq!(chain, 9);
    }

    #[test]
    fn send_time_stamps_follow_the_buffer_clock() {
        let mut buf = MessageBuffer::with_processors(2);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.set_now(7);
        buf.enqueue_unicast(id(0), id(1), report(2), 0);
        assert_eq!(buf.head_sent_at(id(0), id(1)), Some(0));
        buf.pop(id(0), id(1));
        assert_eq!(buf.head_sent_at(id(0), id(1)), Some(7));
        buf.pop(id(0), id(1));
        assert_eq!(buf.head_sent_at(id(0), id(1)), None);
        // Reset rewinds the clock with everything else.
        buf.set_now(9);
        buf.reset(2);
        buf.enqueue_unicast(id(0), id(1), report(3), 0);
        assert_eq!(buf.head_sent_at(id(0), id(1)), Some(0));
    }

    /// The rounds of everything [`MessageBuffer::drain`] lends from a
    /// channel, in the order it lends them.
    fn drained_rounds(buf: &mut MessageBuffer, from: usize, to: usize) -> Vec<Option<u64>> {
        let mut rounds = Vec::new();
        let count = buf.drain(id(from), id(to), |payload, _| rounds.push(payload.round()));
        assert_eq!(count, rounds.len());
        rounds
    }

    #[test]
    fn drain_removes_everything_in_order() {
        let mut buf = MessageBuffer::with_processors(5);
        for r in 1..=3 {
            buf.enqueue_unicast(id(4), id(2), report(r), 0);
        }
        assert_eq!(
            drained_rounds(&mut buf, 4, 2),
            vec![Some(1), Some(2), Some(3)]
        );
        assert!(buf.is_empty());
        assert_eq!(buf.delivered_count(), 3);
    }

    #[test]
    fn drain_of_missing_channel_is_empty() {
        let mut buf = MessageBuffer::with_processors(3);
        assert_eq!(buf.drain(id(0), id(1), |_, _| unreachable!()), 0);
        buf.enqueue_unicast(id(0), id(2), report(1), 0);
        assert_eq!(buf.drain(id(0), id(1), |_, _| unreachable!()), 0);
        assert_eq!(buf.drain(id(0), id(9), |_, _| unreachable!()), 0);
        assert_eq!(buf.drain(id(9), id(0), |_, _| unreachable!()), 0);
        assert_eq!(buf.pending_total(), 1);
    }

    #[test]
    fn drain_lends_from_the_log_and_the_next_send_recycles_it() {
        let mut buf = MessageBuffer::with_processors(3);
        for r in 1..=3 {
            buf.enqueue_unicast(id(0), id(1), report(r), 0);
        }
        assert_eq!(
            drained_rounds(&mut buf, 0, 1),
            vec![Some(1), Some(2), Some(3)]
        );
        assert_eq!(logged(&buf), 3, "lent entries outlive the drain");
        buf.enqueue_unicast(id(0), id(1), report(9), 0);
        assert_eq!(logged(&buf), 1, "the drained log was recycled");
        assert_eq!(drained_rounds(&mut buf, 0, 1), vec![Some(9)]);
    }

    #[test]
    fn pending_since_is_the_oldest_stamp_of_an_undrained_lane() {
        let mut buf = MessageBuffer::with_processors(3);
        assert_eq!(buf.pending_since(id(0)), None);
        assert_eq!(buf.pending_since(id(7)), None);
        buf.set_now(4);
        buf.broadcast(id(0), report(1), 0);
        buf.set_now(9);
        buf.enqueue_unicast(id(0), id(1), report(2), 0);
        assert_eq!(buf.pending_since(id(0)), Some(4));
        // The stamp-4 broadcast is delivered everywhere; the bound goes
        // stale rather than wrong: still a lower bound on what is pending.
        for to in 0..3 {
            buf.pop(id(0), id(to));
        }
        assert_eq!(buf.head_sent_at(id(0), id(1)), Some(9));
        assert_eq!(buf.pending_since(id(0)), Some(4));
        buf.pop(id(0), id(1));
        assert_eq!(buf.pending_since(id(0)), None);
        // Drained, so the next send recycles the log and the bound is exact.
        buf.set_now(12);
        buf.enqueue_unicast(id(0), id(2), report(3), 0);
        assert_eq!(buf.pending_since(id(0)), Some(12));
    }

    #[test]
    fn drop_to_discards_only_that_recipient() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.enqueue_unicast(id(0), id(2), report(1), 0);
        buf.drop_to(id(1));
        assert_eq!(buf.pending_on(id(0), id(1)), 0);
        assert_eq!(buf.pending_on(id(0), id(2)), 1);
        assert_eq!(buf.dropped_count(), 1);
    }

    #[test]
    fn corrupt_head_replaces_payload_in_place() {
        let mut buf = MessageBuffer::with_processors(4);
        buf.enqueue_unicast(id(3), id(0), report(5), 7);
        let lie = Payload::Report {
            round: 5,
            value: Bit::One,
        };
        let original = buf.corrupt_head(id(3), id(0), lie).unwrap();
        assert_eq!(original.advocated_value(), Some(Bit::Zero));
        let now = buf.peek(id(3), id(0)).unwrap();
        assert_eq!(now.advocated_value(), Some(Bit::One));
        assert_eq!(buf.pending_on(id(3), id(0)), 1);
        // Corruption rewrites contents, not causality: the tag is preserved.
        let (_, chain) = buf.pop_message(id(3), id(0)).unwrap();
        assert_eq!(chain, 7);
    }

    #[test]
    fn iter_visits_every_pending_message() {
        let mut buf = MessageBuffer::with_processors(2);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.enqueue_unicast(id(1), id(0), report(2), 0);
        buf.enqueue_unicast(id(1), id(0), report(3), 0);
        assert_eq!(buf.iter().count(), 3);
        assert_eq!(buf.pending_total(), 3);
        assert_eq!(buf.enqueued_count(), 3);
    }

    #[test]
    fn iter_is_sender_major_like_the_old_btree_layout() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.enqueue_unicast(id(2), id(0), report(1), 0);
        buf.enqueue_unicast(id(0), id(2), report(2), 0);
        buf.enqueue_unicast(id(0), id(1), report(3), 0);
        buf.enqueue_unicast(id(1), id(0), report(4), 0);
        let order: Vec<(usize, usize)> = buf
            .iter()
            .map(|(from, to, _)| (from.index(), to.index()))
            .collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 0), (2, 0)]);
    }

    #[test]
    fn out_of_range_queries_are_answered_gracefully() {
        let mut buf = MessageBuffer::with_processors(2);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.broadcast(id(1), report(2), 0);
        assert_eq!(buf.pending_on(id(5), id(0)), 0);
        assert_eq!(buf.pending_on(id(1), id(5)), 0);
        assert!(buf.peek(id(0), id(9)).is_none());
        assert!(buf.pop(id(9), id(0)).is_none());
        assert!(buf.pop(id(1), id(9)).is_none());
        assert_eq!(buf.pending_since(id(5)), None);
        buf.drop_to(id(42));
        assert_eq!(buf.pending_total(), 3);
    }

    #[test]
    #[should_panic]
    fn a_broadcast_from_a_sender_past_n_panics() {
        MessageBuffer::with_processors(3).broadcast(id(3), report(1), 0);
    }

    #[test]
    #[should_panic]
    fn a_unicast_from_a_sender_past_n_panics() {
        MessageBuffer::with_processors(3).enqueue_unicast(id(3), id(0), report(1), 0);
    }

    #[test]
    #[should_panic]
    fn a_multicast_naming_a_recipient_past_n_panics() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.multicast(id(0), &[id(1), id(3)], report(1), 0);
    }

    #[test]
    fn a_broadcast_is_one_log_entry_however_many_it_addresses() {
        let mut buf = MessageBuffer::with_processors(4);
        buf.broadcast(
            id(0),
            Payload::Report {
                round: 1,
                value: Bit::One,
            },
            1,
        );
        assert_eq!(buf.pending_total(), 4, "four pending messages");
        assert_eq!(buf.enqueued_count(), 4);
        assert_eq!(logged(&buf), 1, "one stored payload");
        assert!(
            buf.lanes[0].queues.is_empty(),
            "addressed by cursor: no index queue materialized"
        );
        // Every recipient resolves the same contents.
        for to in ProcessorId::all(4) {
            let (p, chain) = buf.pop_message(id(0), to).unwrap();
            assert_eq!(p.round(), Some(1));
            assert_eq!(chain, 1);
        }
        assert_eq!(buf.delivered_count(), 4);
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupting_a_shared_head_leaves_other_recipients_untouched() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.broadcast(id(0), report(1), 2);
        buf.enqueue_unicast(id(0), id(1), report(2), 0);
        let lie = Payload::Report {
            round: 1,
            value: Bit::One,
        };
        let original = buf.corrupt_head(id(0), id(1), lie).unwrap();
        assert_eq!(original.advocated_value(), Some(Bit::Zero));
        // Recipient 1 sees the corruption — ahead of the unicast that was
        // sent after the broadcast — 0 and 2 see the original.
        assert_eq!(buf.pending_on(id(0), id(1)), 2);
        let (corrupted, chain) = buf.pop_message(id(0), id(1)).unwrap();
        assert_eq!(corrupted.advocated_value(), Some(Bit::One));
        assert_eq!(chain, 2, "the replacement keeps the original's tag");
        assert_eq!(buf.pop(id(0), id(1)).unwrap().round(), Some(2));
        for to in [id(0), id(2)] {
            let p = buf.pop(id(0), to).unwrap();
            assert_eq!(p.advocated_value(), Some(Bit::Zero));
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_message_lends_the_payload_from_the_log() {
        let mut buf = MessageBuffer::with_processors(2);
        buf.broadcast(id(1), report(7), 3);
        let (payload, chain) = buf.pop_message(id(1), id(0)).unwrap();
        assert_eq!(chain, 3);
        assert_eq!(payload.round(), Some(7));
        assert_eq!(buf.delivered_count(), 1);
        // Draining the lane does not pull the payload out from under the
        // borrower: the log is only recycled by the lane's next send.
        let (payload, _) = buf.pop_message(id(1), id(1)).unwrap();
        assert_eq!(payload.round(), Some(7));
        assert!(buf.is_empty());
        assert_eq!(logged(&buf), 1);
        buf.enqueue_unicast(id(1), id(0), report(8), 0);
        assert_eq!(logged(&buf), 1, "the drained log was recycled");
        assert_eq!(buf.peek(id(1), id(0)).unwrap().round(), Some(8));
    }

    #[test]
    fn reset_clears_messages_logs_and_counters() {
        let mut buf = MessageBuffer::with_processors(3);
        buf.enqueue_unicast(id(0), id(1), report(1), 0);
        buf.enqueue_unicast(id(2), id(0), report(2), 0);
        buf.broadcast(id(1), report(3), 0);
        buf.pop(id(0), id(1));
        buf.pop(id(1), id(2));
        buf.reset(3);
        assert!(buf.is_empty());
        assert_eq!(logged(&buf), 0);
        assert_eq!(buf.iter().count(), 0);
        assert_eq!(buf.enqueued_count(), 0);
        assert_eq!(buf.delivered_count(), 0);
        assert_eq!(buf.dropped_count(), 0);
        assert!(
            buf.next_pending_channel(3, ChannelCursor::default())
                .is_none(),
            "live bits cleared"
        );
        assert_eq!(buf.check_lanes(), Ok(()));
        // Still usable for the same n, cursors rewound.
        buf.enqueue_unicast(id(2), id(2), report(1), 0);
        assert_eq!(buf.pending_on(id(2), id(2)), 1);
        buf.broadcast(id(1), report(4), 0);
        assert_eq!(buf.pending_on(id(1), id(2)), 1);
        // Re-shaping to a different n works.
        buf.reset(9);
        buf.enqueue_unicast(id(8), id(8), report(1), 0);
        assert_eq!(buf.pending_on(id(8), id(8)), 1);
        assert_eq!(buf.check_lanes(), Ok(()));
    }

    #[test]
    fn multicast_logs_once_and_costs_only_the_recipient_set() {
        let mut buf = MessageBuffer::with_processors(1000);
        let committee: Vec<ProcessorId> = [3usize, 71, 512].iter().map(|&i| id(i)).collect();
        buf.multicast(id(71), &committee, report(1), 2);
        assert_eq!(buf.pending_total(), 3);
        assert_eq!(logged(&buf), 1, "one logged payload for the set");
        assert_eq!(buf.lanes[71].recipients, vec![3, 71, 512]);
        assert!(
            buf.lanes[71].cursors.is_empty(),
            "no cursor row without a broadcast"
        );
        let targets: Vec<usize> = buf.iter().map(|(_, to, _)| to.index()).collect();
        assert_eq!(targets, vec![3, 71, 512]);
        for &to in &committee {
            let (p, chain) = buf.pop_message(id(71), to).unwrap();
            assert_eq!(p.round(), Some(1));
            assert_eq!(chain, 2);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn multicast_to_no_one_sends_nothing_and_duplicates_send_twice() {
        let mut buf = MessageBuffer::with_processors(100);
        buf.multicast(id(0), &[], report(1), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.enqueued_count(), 0, "empty set is a no-op");
        assert_eq!(logged(&buf), 0);
        buf.multicast(id(0), &[id(9), id(4), id(9)], report(2), 5);
        assert_eq!(buf.enqueued_count(), 3);
        assert_eq!(buf.pending_on(id(0), id(9)), 2);
        assert_eq!(buf.pending_on(id(0), id(4)), 1);
        let (p, chain) = buf.pop_message(id(0), id(9)).unwrap();
        assert_eq!(p.round(), Some(2));
        assert_eq!(chain, 5);
    }

    #[test]
    fn drop_to_keeps_the_scan_honest() {
        let n = 80;
        let mut buf = MessageBuffer::with_processors(n);
        buf.enqueue_unicast(id(10), id(40), report(1), 0);
        buf.enqueue_unicast(id(64), id(40), report(2), 0);
        buf.enqueue_unicast(id(64), id(41), report(3), 0);
        buf.drop_to(id(40));
        assert_eq!(buf.dropped_count(), 2);
        let hit = buf.next_pending_channel(n, ChannelCursor::default());
        assert_eq!(
            hit.map(|(_, f, t)| (f.index(), t.index())),
            Some((64, 41)),
            "sender 10's lane went idle with the drop; the scan skips it"
        );
        buf.pop(id(64), id(41));
        assert!(buf
            .next_pending_channel(n, ChannelCursor::default())
            .is_none());
    }

    #[test]
    fn lanes_allocate_no_quadratic_state() {
        let n = 10_000;
        let mut buf = MessageBuffer::with_processors(n);
        assert_eq!(buf.lanes.len(), n, "one lane per sender");
        assert_eq!(buf.live.len(), n.div_ceil(64));
        assert!(
            buf.lanes
                .iter()
                .all(|lane| lane.cursors.is_empty() && lane.queues.is_empty()),
            "cursor rows and index queues materialize lazily, on first send"
        );
        // A committee's worth of broadcasters pays for its own cursor rows
        // and nothing else: O(27 · n) on top of the lanes, not O(n²).
        let fixed = heap_bytes(&buf);
        assert!(fixed <= n * (size_of::<Lane>() + 1));
        for s in 0..27 {
            buf.broadcast(id(s * 370), report(s as u64), 1);
        }
        assert_eq!(buf.pending_total(), 27 * n);
        let rows = 27 * n * size_of::<u32>();
        let slack = 27 * 16 * size_of::<Entry>();
        assert!(
            heap_bytes(&buf) <= fixed + rows + slack,
            "{} bytes held after 27 broadcasts at n = {n}",
            heap_bytes(&buf)
        );
        // Delivery allocates nothing further.
        let before = heap_bytes(&buf);
        for s in 0..27 {
            for r in (0..n).step_by(7) {
                assert!(buf.pop_message(id(s * 370), id(r)).is_some());
            }
        }
        assert_eq!(heap_bytes(&buf), before);
    }

    #[test]
    fn drained_lanes_recycle_their_logs_so_memory_stays_bounded() {
        let n = 6;
        let mut buf = MessageBuffer::with_processors(n);
        let committee = [id(1), id(4)];
        let mut after_ten = 0;
        for cycle in 0..100_000u64 {
            buf.broadcast(id(2), report(cycle), 1);
            buf.multicast(id(2), &committee, report(cycle), 1);
            buf.broadcast(id(2), report(cycle), 2);
            for to in ProcessorId::all(n) {
                while buf.pop_message(id(2), to).is_some() {}
            }
            assert!(buf.is_empty());
            if cycle == 9 {
                after_ten = heap_bytes(&buf);
            }
        }
        assert_eq!(
            heap_bytes(&buf),
            after_ten,
            "log, cursor and queue capacity stay where the tenth cycle left them"
        );
        assert!(logged(&buf) <= 3, "at most the last cycle's sends are held");
        assert_eq!(buf.delivered_count(), 100_000 * (2 * n as u64 + 2));
    }

    /// One message as the reference model holds it: payload, chain tag and
    /// send time.
    type Sent = (Payload, u64, u64);

    /// The reference the differential test holds the buffer to: every
    /// channel an owned FIFO of `(payload, chain, sent_at)`, the payload
    /// cloned per recipient.
    #[derive(Default)]
    struct Model {
        n: usize,
        now: u64,
        channels: BTreeMap<(usize, usize), VecDeque<Sent>>,
        enqueued: u64,
        delivered: u64,
        dropped: u64,
    }

    impl Model {
        fn send(&mut self, s: usize, to: impl IntoIterator<Item = usize>, p: &Payload, chain: u64) {
            for r in to {
                let channel = self.channels.entry((s, r)).or_default();
                channel.push_back((p.clone(), chain, self.now));
                self.enqueued += 1;
            }
        }

        fn pop(&mut self, s: usize, r: usize) -> Option<(Payload, u64)> {
            let (payload, chain, _) = self.channels.get_mut(&(s, r))?.pop_front()?;
            self.delivered += 1;
            Some((payload, chain))
        }

        fn drop_to(&mut self, r: usize) {
            for (_, channel) in self.channels.iter_mut().filter(|((_, to), _)| *to == r) {
                self.dropped += channel.len() as u64;
                channel.clear();
            }
        }

        fn corrupt_head(&mut self, s: usize, r: usize, replacement: Payload) -> Option<Payload> {
            let head = self.channels.get_mut(&(s, r))?.front_mut()?;
            Some(std::mem::replace(&mut head.0, replacement))
        }

        fn discard_undelivered(&mut self) -> usize {
            let count = self.channels.values().map(VecDeque::len).sum();
            self.channels.clear();
            self.dropped += count as u64;
            count
        }

        /// Per recipient in ascending order, how many of `s`'s pending
        /// messages to it are stamped at most `bound`; asserts that those
        /// are a prefix of the channel.
        fn owed(&self, s: usize, bound: u64) -> Vec<(ProcessorId, usize)> {
            let lane = self.channels.range((s, 0)..=(s, self.n));
            let counted = lane.map(|(&(_, r), channel)| {
                let count = channel.iter().take_while(|sent| sent.2 <= bound).count();
                let mut late = channel.iter().skip(count);
                assert!(late.all(|sent| sent.2 > bound), "{s} -> {r} unordered");
                (id(r), count)
            });
            counted.filter(|&(_, count)| count > 0).collect()
        }

        fn has_pending(&self, s: usize, r: usize) -> bool {
            self.channels.get(&(s, r)).is_some_and(|c| !c.is_empty())
        }

        /// The first pending, admitted channel from channel index `start`
        /// on (`s * n + r` numbers channel `(s, r)`), wrapping: its index.
        fn next_pending_where(
            &self,
            start: usize,
            admit: impl Fn(usize, usize) -> bool,
        ) -> Option<usize> {
            let (n, channels) = (self.n, self.n * self.n);
            (0..channels)
                .map(|offset| (start + offset) % channels)
                .find(|&idx| admit(idx / n, idx % n) && self.has_pending(idx / n, idx % n))
        }
    }

    /// The paths through [`MessageBuffer::next_pending_channel_where`] a
    /// differential run's scans took, counted so that the test can insist
    /// every one of them was compared against the model.
    #[derive(Debug, Default)]
    struct ScanPaths {
        /// The cursor's own channel held a broadcast behind its cursor, and
        /// the scan admitted it: the inline hit.
        own_hit: usize,
        /// The own channel held such a broadcast, but `admit` turned it
        /// away, as for a crashed recipient.
        own_rejected: usize,
        /// The own channel was pending on its index queue alone.
        queue_only: usize,
        /// The hit lay before the cursor, or was channel `(n − 1, n − 1)`:
        /// the round robin wrapped.
        wrapped: usize,
        /// [`MessageBuffer::owed_channels`] listed a channel of a lane that
        /// never named a recipient: by the cursor row alone.
        owed_by_cursor_row: usize,
        /// It listed a channel of a lane with index queues: by each
        /// channel's merged FIFO.
        owed_by_merged_fifo: usize,
    }

    /// Every scan [`MessageBuffer::next_pending_channel_where`] can make
    /// from channel index `start` — all admitted, a picky predicate, and one
    /// that turns a `down` recipient away as the view does a crashed one —
    /// against the model, counting the paths taken into `paths`.
    fn assert_scans_from(
        buf: &MessageBuffer,
        model: &Model,
        start: usize,
        down: usize,
        paths: &mut ScanPaths,
        at: &str,
    ) {
        let n = model.n;
        let (s, r) = (start / n, start % n);
        let cursor = ChannelCursor::at(id(s), id(r));
        let by_cast = buf
            .lanes
            .get(s)
            .is_some_and(|lane| lane.cursor(r) < lane.broadcasts.len());
        let picky = |s: usize, r: usize| !(s + 2 * r).is_multiple_of(3);
        let up = |_: usize, r: usize| r != down;
        let admitters: [&dyn Fn(usize, usize) -> bool; 3] = [&|_, _| true, &picky, &up];
        for (which, admit) in admitters.into_iter().enumerate() {
            let expected = model.next_pending_where(start, admit).map(|hit| {
                let (hs, hr) = (hit / n, hit % n);
                if hit < start || hit == n * n - 1 {
                    paths.wrapped += 1;
                }
                (ChannelCursor::after(hs, hr, n), id(hs), id(hr))
            });
            let found =
                buf.next_pending_channel_where(n, cursor, |s, r| admit(s.index(), r.index()));
            assert_eq!(found, expected, "scan {which} from ({s}, {r}) {at}");
            if by_cast && admit(s, r) {
                paths.own_hit += 1;
            } else if by_cast {
                paths.own_rejected += 1;
            } else if model.has_pending(s, r) {
                paths.queue_only += 1;
            }
        }
        // Past the channel space the round robin starts over at (0, 0).
        for outside in [
            ChannelCursor::at(id(n), id(0)),
            ChannelCursor::at(id(0), id(n)),
        ] {
            let expected = model.next_pending_where(0, |_, _| true);
            let found = buf
                .next_pending_channel(n, outside)
                .map(|(_, f, t)| f.index() * n + t.index());
            assert_eq!(found, expected, "scan from {outside:?} {at}");
        }
    }

    /// Every read the buffer offers, against the model.
    fn assert_matches(
        buf: &MessageBuffer,
        model: &Model,
        rng: &mut ProcessorRng,
        paths: &mut ScanPaths,
        at: &str,
    ) {
        let n = model.n;
        let held: Vec<(usize, usize, Payload)> = buf
            .iter()
            .map(|(s, r, p)| (s.index(), r.index(), p.clone()))
            .collect();
        let expected: Vec<(usize, usize, Payload)> = model
            .channels
            .iter()
            .flat_map(|(&(s, r), channel)| channel.iter().map(move |(p, _, _)| (s, r, p.clone())))
            .collect();
        assert_eq!(held, expected, "iter {at}");
        assert_eq!(buf.enqueued_count(), model.enqueued, "enqueued {at}");
        assert_eq!(buf.delivered_count(), model.delivered, "delivered {at}");
        assert_eq!(buf.dropped_count(), model.dropped, "dropped {at}");
        assert_eq!(buf.pending_total(), expected.len(), "pending_total {at}");
        assert_eq!(buf.is_empty(), expected.is_empty(), "is_empty {at}");
        for s in 0..n {
            // A lower bound on every pending stamp of the lane; `None`
            // exactly when the lane has nothing pending.
            let lane = model.channels.range((s, 0)..=(s, n));
            let oldest = lane.filter_map(|(_, c)| c.front()).map(|h| h.2).min();
            let bound = buf.pending_since(id(s));
            assert_eq!(bound.is_some(), oldest.is_some(), "pending_since({s}) {at}");
            assert!(bound <= oldest, "pending_since({s}) is no lower bound {at}");
        }
        for r in 0..n {
            for s in 0..n {
                let channel = model.channels.get(&(s, r));
                let head = channel.and_then(VecDeque::front);
                assert_eq!(
                    buf.pending_on(id(s), id(r)),
                    channel.map_or(0, VecDeque::len),
                    "pending_on({s}, {r}) {at}"
                );
                assert_eq!(
                    buf.peek(id(s), id(r)),
                    head.map(|h| &h.0),
                    "peek({s}, {r}) {at}"
                );
                assert_eq!(
                    buf.head_sent_at(id(s), id(r)),
                    head.map(|h| h.2),
                    "head_sent_at({s}, {r}) {at}"
                );
            }
        }
        // Every channel as the cursor for n ≤ 8; a sample, plus the last
        // channel, above.
        let channels = n * n;
        let starts: Vec<usize> = if n <= 8 {
            (0..channels).collect()
        } else {
            (0..12)
                .map(|_| rng.range(channels as u64) as usize)
                .chain([channels - 1])
                .collect()
        };
        let down = rng.range(n as u64) as usize;
        for start in starts {
            assert_scans_from(buf, model, start, down, paths, at);
        }
    }

    /// Drives one buffer and the model through `ops` seeded random
    /// operations, comparing every result and, after each operation, every
    /// read.
    fn run_differential(n: usize, seed: u64, ops: usize, paths: &mut ScanPaths) {
        let mut rng = ProcessorRng::labelled(seed, n as u64);
        let mut buf = MessageBuffer::with_processors(n);
        let mut model = Model {
            n,
            ..Model::default()
        };
        let mut serial = 0;
        let mut fresh = |value| {
            serial += 1;
            Payload::Report {
                round: serial,
                value,
            }
        };
        let mut owed = Vec::new();
        for op in 0..ops {
            let at = format!("after op {op} (n = {n}, seed {seed})");
            let any = |rng: &mut ProcessorRng| rng.range(n as u64) as usize;
            // Mostly aim at a channel that has something on it.
            let aim = |rng: &mut ProcessorRng, model: &Model| {
                let start = rng.range((n * n) as u64) as usize;
                match model.next_pending_where(start, |_, _| true) {
                    Some(hit) if rng.range(4) > 0 => (hit / n, hit % n),
                    _ => (any(rng), any(rng)),
                }
            };
            // Senders 3, 7, 11, … only broadcast (their corruptions go to
            // the sender below), so their lanes never name a recipient.
            let naming = |s: usize| if s % 4 == 3 { s - 1 } else { s };
            let chain = rng.range(10);
            match rng.range(106) {
                0..=11 => {
                    let (s, r, p) = (naming(any(&mut rng)), any(&mut rng), fresh(Bit::Zero));
                    model.send(s, [r], &p, chain);
                    buf.enqueue_unicast(id(s), id(r), p, chain);
                }
                12..=23 => {
                    // Empty, singleton and duplicate-bearing sets included.
                    let s = naming(any(&mut rng));
                    let set: Vec<usize> = (0..rng.range(5)).map(|_| any(&mut rng)).collect();
                    let ids: Vec<ProcessorId> = set.iter().map(|&r| id(r)).collect();
                    let p = fresh(Bit::Zero);
                    model.send(s, set, &p, chain);
                    buf.multicast(id(s), &ids, p, chain);
                }
                24..=35 => {
                    let (s, p) = (any(&mut rng), fresh(Bit::Zero));
                    model.send(s, 0..n, &p, chain);
                    buf.broadcast(id(s), p, chain);
                }
                36..=59 => {
                    for _ in 0..=rng.range(2 * n as u64) {
                        let (s, r) = aim(&mut rng, &model);
                        let expected = model.pop(s, r);
                        if rng.bit().is_one() {
                            let payload = expected.map(|(p, _)| p);
                            assert_eq!(buf.pop(id(s), id(r)), payload, "pop {at}");
                        } else {
                            let lent = buf.pop_message(id(s), id(r));
                            assert_eq!(
                                lent.map(|(p, c)| (p.clone(), c)),
                                expected,
                                "pop_message {at}"
                            );
                        }
                    }
                }
                60..=67 => {
                    // Drain one sender completely, so its lane recycles.
                    let s = any(&mut rng);
                    for r in 0..n {
                        while let Some((payload, chain)) = model.pop(s, r) {
                            let lent = buf.pop_message(id(s), id(r));
                            assert_eq!(lent, Some((&payload, chain)), "{at}");
                        }
                        assert_eq!(buf.pop(id(s), id(r)), None, "{at}");
                    }
                }
                68..=73 => {
                    let r = any(&mut rng);
                    model.drop_to(r);
                    buf.drop_to(id(r));
                }
                74..=87 => {
                    let (s, r) = aim(&mut rng, &model);
                    let s = naming(s);
                    let lie = fresh(Bit::One);
                    let expected = model.corrupt_head(s, r, lie.clone());
                    let original = buf.corrupt_head(id(s), id(r), lie).cloned();
                    assert_eq!(original, expected, "corrupt_head {at}");
                }
                88..=90 => {
                    assert_eq!(
                        buf.discard_undelivered(),
                        model.discard_undelivered(),
                        "{at}"
                    );
                }
                91 => {
                    model = Model {
                        n,
                        ..Model::default()
                    };
                    buf.reset(n);
                }
                100..=105 => {
                    // One lane's owed channels at a bound up to just past
                    // the clock; then, mostly, a sender's forced
                    // deliveries: exactly the owed count popped off each.
                    let (s, bound) = (any(&mut rng), rng.range(model.now + 2));
                    buf.owed_channels(id(s), bound, &mut owed);
                    assert_eq!(
                        owed,
                        model.owed(s, bound),
                        "owed_channels({s}, {bound}) {at}"
                    );
                    match (owed.is_empty(), buf.lanes[s].recipients.is_empty()) {
                        (true, _) => {}
                        (false, true) => paths.owed_by_cursor_row += 1,
                        (false, false) => paths.owed_by_merged_fifo += 1,
                    }
                    if rng.range(4) > 0 {
                        for &(r, count) in &owed {
                            for _ in 0..count {
                                let expected = model.pop(s, r.index());
                                let (p, chain) = buf.pop_owed(id(s), r);
                                assert_eq!(Some((p.clone(), chain)), expected, "pop_owed {at}");
                            }
                        }
                        buf.owed_channels(id(s), bound, &mut owed);
                        assert_eq!(owed, [], "owed after the forced deliveries {at}");
                    }
                }
                _ => {
                    model.now += rng.range(3);
                    buf.set_now(model.now);
                }
            }
            assert_eq!(buf.check_lanes(), Ok(()), "{at}");
            assert_matches(&buf, &model, &mut rng, paths, &at);
        }
    }

    /// Everything observable about a buffer without changing it, rendered
    /// for comparison: contents, counters, scan answers from a spread of
    /// cursors, per-lane bounds and held heap.
    fn observe(buf: &MessageBuffer, n: usize) -> String {
        let counters = [
            buf.enqueued_count(),
            buf.delivered_count(),
            buf.dropped_count(),
        ];
        let scans: Vec<_> = (0..n * n)
            .step_by(1 + n * n / 16)
            .map(|start| {
                buf.next_pending_channel(n, ChannelCursor::at(id(start / n), id(start % n)))
            })
            .collect();
        let bounds: Vec<_> = (0..n).map(|s| buf.pending_since(id(s))).collect();
        format!(
            "{:?} {counters:?} {} {scans:?} {bounds:?} {}",
            buf.iter().collect::<Vec<_>>(),
            buf.pending_total(),
            heap_bytes(buf)
        )
    }

    /// Empties the channel `s -> r` of both twins — `drained` in one
    /// [`MessageBuffer::drain`], `popped` by [`MessageBuffer::pop_message`]
    /// until `None` — and checks they lent the same messages.
    fn empty_channel_both_ways(
        drained: &mut MessageBuffer,
        popped: &mut MessageBuffer,
        s: usize,
        r: usize,
        at: &str,
    ) {
        let mut by_drain = Vec::new();
        let count = drained.drain(id(s), id(r), |p, chain| by_drain.push((p.clone(), chain)));
        let mut by_pop = Vec::new();
        while let Some((p, chain)) = popped.pop_message(id(s), id(r)) {
            by_pop.push((p.clone(), chain));
        }
        assert_eq!(by_drain, by_pop, "channel {s} -> {r} {at}");
        assert_eq!(count, by_pop.len(), "drain count {s} -> {r} {at}");
    }

    /// Drives twin buffers through the same seeded traffic; the only
    /// difference is how a channel is emptied.
    fn run_drain_twins(n: usize, seed: u64, ops: usize) {
        let mut rng = ProcessorRng::labelled(seed, 0xD4A1 + n as u64);
        let mut drained = MessageBuffer::with_processors(n);
        let mut popped = MessageBuffer::with_processors(n);
        let mut serial = 0;
        let mut now = 0;
        for op in 0..ops {
            let at = format!("after op {op} (n = {n}, seed {seed})");
            let any = |rng: &mut ProcessorRng| rng.range(n as u64) as usize;
            let chain = rng.range(10);
            serial += 1;
            let p = report(serial);
            match rng.range(100) {
                0..=9 => {
                    let (s, r) = (any(&mut rng), any(&mut rng));
                    drained.enqueue_unicast(id(s), id(r), p.clone(), chain);
                    popped.enqueue_unicast(id(s), id(r), p, chain);
                }
                10..=24 => {
                    // Sets in whatever order the draws come — descending,
                    // shuffled, with repeats.
                    let s = any(&mut rng);
                    let ids: Vec<ProcessorId> =
                        (0..rng.range(6)).map(|_| id(any(&mut rng))).collect();
                    drained.multicast(id(s), &ids, p.clone(), chain);
                    popped.multicast(id(s), &ids, p, chain);
                }
                25..=36 => {
                    let s = any(&mut rng);
                    drained.broadcast(id(s), p.clone(), chain);
                    popped.broadcast(id(s), p, chain);
                }
                37..=44 => {
                    // A few single deliveries, so drains start mid-channel.
                    for _ in 0..=rng.range(n as u64) {
                        let (s, r) = (any(&mut rng), any(&mut rng));
                        let a = drained.pop_message(id(s), id(r));
                        assert_eq!(a, popped.pop_message(id(s), id(r)), "pop {at}");
                    }
                }
                45..=64 => {
                    let (s, r) = (any(&mut rng), any(&mut rng));
                    empty_channel_both_ways(&mut drained, &mut popped, s, r, &at);
                }
                65..=74 => {
                    // A whole receiving phase: the lane drains and recycles.
                    let s = any(&mut rng);
                    for r in 0..n {
                        empty_channel_both_ways(&mut drained, &mut popped, s, r, &at);
                    }
                    assert_eq!(drained.pending_since(id(s)), None, "{at}");
                }
                75..=84 => {
                    let (s, r) = (any(&mut rng), any(&mut rng));
                    let a = drained.corrupt_head(id(s), id(r), p.clone()).cloned();
                    assert_eq!(a, popped.corrupt_head(id(s), id(r), p).cloned(), "{at}");
                    if a.is_some() && rng.bit().is_one() {
                        // The head is a replacement: empty it right away.
                        empty_channel_both_ways(&mut drained, &mut popped, s, r, &at);
                    }
                }
                85..=89 => {
                    let r = any(&mut rng);
                    drained.drop_to(id(r));
                    popped.drop_to(id(r));
                }
                90..=92 => {
                    let a = drained.discard_undelivered();
                    assert_eq!(a, popped.discard_undelivered(), "{at}");
                }
                93 => {
                    drained.reset(n);
                    popped.reset(n);
                    now = 0;
                }
                _ => {
                    now += rng.range(3);
                    drained.set_now(now);
                    popped.set_now(now);
                }
            }
            assert_eq!(drained.check_lanes(), Ok(()), "drained {at}");
            assert_eq!(popped.check_lanes(), Ok(()), "popped {at}");
            assert_eq!(observe(&drained, n), observe(&popped, n), "{at}");
        }
    }

    #[test]
    fn drain_is_pop_until_empty() {
        // Scripted first: a multicast naming a recipient twice behind a
        // broadcast, on a channel whose head is a corrupted replacement.
        let mut twins = [
            MessageBuffer::with_processors(4),
            MessageBuffer::with_processors(4),
        ];
        for buf in &mut twins {
            buf.broadcast(id(2), report(1), 1);
            buf.multicast(id(2), &[id(3), id(0), id(3)], report(2), 2);
            buf.broadcast(id(2), report(3), 3);
            let lie = Payload::Report {
                round: 1,
                value: Bit::One,
            };
            assert!(buf.corrupt_head(id(2), id(3), lie).is_some());
        }
        let [drained, popped] = &mut twins;
        let mut lent = Vec::new();
        drained.drain(id(2), id(3), |p, chain| {
            lent.push((p.round(), p.advocated_value(), chain))
        });
        assert_eq!(
            lent,
            vec![
                (Some(1), Some(Bit::One), 1),
                (Some(2), Some(Bit::Zero), 2),
                (Some(2), Some(Bit::Zero), 2),
                (Some(3), Some(Bit::Zero), 3),
            ]
        );
        while popped.pop_message(id(2), id(3)).is_some() {}
        assert_eq!(drained.check_lanes(), Ok(()));
        assert_eq!(observe(drained, 4), observe(popped, 4));
        for r in 0..4 {
            empty_channel_both_ways(drained, popped, 2, r, "scripted");
        }
        assert_eq!(observe(drained, 4), observe(popped, 4));
        for buf in [drained, popped] {
            buf.broadcast(id(2), report(4), 0);
            assert_eq!(logged(buf), 1, "the drained lane recycled");
        }

        for seed in 0..6 {
            run_drain_twins(5, seed, 1_200);
        }
        run_drain_twins(1, 7, 200);
        run_drain_twins(66, 8, 300);
    }

    #[test]
    fn slot_table_finds_recipients_named_in_any_order() {
        let n = 100;
        let mut buf = MessageBuffer::with_processors(n);
        // Descending, then shuffled with a repeat, then one more in between.
        buf.multicast(id(5), &[id(90), id(40), id(7)], report(1), 0);
        assert_eq!(buf.lanes[5].recipients, vec![7, 40, 90]);
        assert_eq!(buf.lanes[5].slots.len(), n, "allocated once, for all n");
        assert_eq!(buf.lanes[5].slots.capacity(), n, "and exactly");
        buf.multicast(id(5), &[id(63), id(7), id(99), id(0), id(63)], report(2), 0);
        assert_eq!(buf.lanes[5].recipients, vec![0, 7, 40, 63, 90, 99]);
        buf.multicast(id(5), &[id(30), id(40)], report(3), 0);
        assert_eq!(buf.lanes[5].recipients, vec![0, 7, 30, 40, 63, 90, 99]);
        assert_eq!(buf.lanes[5].slots.len(), n, "never grown");
        assert!(
            buf.lanes[6].slots.is_empty(),
            "a lane that named no one has no table"
        );
        for (to, rounds) in [
            (0, vec![2]),
            (7, vec![1, 2]),
            (40, vec![1, 3]),
            (63, vec![2, 2]),
            (90, vec![1]),
            (99, vec![2]),
            (30, vec![3]),
            (8, vec![]),
        ] {
            assert_eq!(buf.pending_on(id(5), id(to)), rounds.len(), "to {to}");
            let rounds: Vec<Option<u64>> = rounds.into_iter().map(Some).collect();
            assert_eq!(drained_rounds(&mut buf, 5, to), rounds, "to {to}");
        }
        assert!(buf.is_empty());
        // The table and the queues survive the recycle and a reset.
        buf.reset(n);
        buf.multicast(id(5), &[id(99)], report(4), 0);
        assert_eq!(buf.lanes[5].queues.len(), 7);
        assert_eq!(buf.pop(id(5), id(99)).unwrap().round(), Some(4));
    }

    #[test]
    fn check_lanes_names_the_first_broken_condition() {
        let fresh = || {
            let mut buf = MessageBuffer::with_processors(4);
            buf.broadcast(id(1), report(1), 0);
            buf.multicast(id(1), &[id(3), id(0)], report(2), 0);
            buf.pop(id(1), id(2));
            assert_eq!(buf.check_lanes(), Ok(()));
            buf
        };
        type Tamper = fn(&mut MessageBuffer);
        let tampered: [(&str, Tamper); 7] = [
            ("pending", |buf| buf.lanes[1].pending += 1),
            ("cursor", |buf| buf.lanes[1].cursors[0] = 2),
            ("outside a log", |buf| buf.lanes[1].queues[0][0] = 9),
            ("out of order", |buf| buf.lanes[1].recipients.swap(0, 1)),
            ("of its own", |buf| {
                buf.lanes[1].slots[3] = buf.lanes[1].slots[0]
            }),
            ("live bit", |buf| clear_bit(&mut buf.live, 1)),
            ("counters say", |buf| buf.delivered -= 1),
        ];
        for (what, tamper) in tampered {
            let mut buf = fresh();
            tamper(&mut buf);
            let broken = buf.check_lanes().expect_err(what);
            assert!(broken.contains(what), "{what}: {broken}");
        }
    }

    #[test]
    fn buffer_matches_the_reference_model_on_random_traffic() {
        let mut paths = ScanPaths::default();
        for seed in 0..6 {
            run_differential(5, seed, 1_500, &mut paths);
        }
        run_differential(1, 7, 200, &mut paths);
        run_differential(8, 9, 400, &mut paths);
        // Past one word of the live bitset.
        run_differential(67, 8, 250, &mut paths);
        let ScanPaths {
            own_hit,
            own_rejected,
            queue_only,
            wrapped,
            owed_by_cursor_row,
            owed_by_merged_fifo,
        } = paths;
        assert!(
            own_hit > 0 && own_rejected > 0 && queue_only > 0 && wrapped > 0,
            "a scan path went untested: {paths:?}"
        );
        assert!(
            owed_by_cursor_row > 0 && owed_by_merged_fifo > 0,
            "an owed-channel path went untested: {paths:?}"
        );
    }
}
