//! A grown-up message transport: bounded blocking channels, length-prefixed
//! frames, and socket connections with coalescing writers.
//!
//! This module is the channel the distributed pieces of the workspace ship
//! bytes through. Three layers, each usable on its own:
//!
//! * [`bounded`] — a capacity-limited blocking MPSC queue. Sends **block**
//!   when the queue is full (backpressure, not unbounded memory), receives
//!   block until an item or a deadline arrives
//!   ([`BoundedReceiver::recv_deadline`]), and
//!   [`BoundedReceiver::recv_many`] drains every queued item in one wakeup —
//!   the coalescing primitive the connection writer batches frames with.
//! * [`write_frame`]/[`read_frame`] — length-prefixed (u32 little-endian)
//!   framing with a CRC32 trailer over any `Write`/`Read`, so a TCP stream
//!   carries discrete, integrity-checked messages instead of a byte soup. A
//!   clean EOF *between* frames is distinguished from a truncated frame, and
//!   a damaged frame surfaces as a detected [`FrameCorrupt`] condition
//!   rather than parsing as garbage.
//! * [`Connection`]/[`Listener`] — a TCP connection with a writer thread
//!   (drains a bounded outbox with [`BoundedReceiver::recv_many`], writes the
//!   whole batch, flushes **once** — many small sends become one syscall) and
//!   a reader thread (feeds a bounded inbox; a slow consumer propagates
//!   backpressure to the peer through TCP flow control). A connection built
//!   with [`Connection::connect_with_faults`] consults a seeded
//!   [`FaultInjector`](crate::fault::FaultInjector) at every outgoing frame
//!   boundary; without one the fault hook is a single branch per frame.
//!
//! The orchestration layer in `agreement-core` speaks JSON inside these
//! frames; this module neither knows nor cares — payloads are opaque bytes.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agreement_analysis::crc32;

use crate::fault::{FaultAction, FaultInjector, FaultPlan};

/// Largest accepted frame payload (64 MiB): a corrupted length prefix must
/// not become an attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The CRC32 trailer appended after every frame payload.
const FRAME_TRAILER: usize = 4;

/// A frame whose CRC32 trailer does not match its payload: the bytes were
/// damaged in flight (or deliberately, by the fault injector). Carried as
/// the inner error of an [`io::ErrorKind::InvalidData`] error from
/// [`read_frame`]; test with [`is_frame_corrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCorrupt {
    /// The checksum the sender wrote.
    pub expected: u32,
    /// The checksum of the payload as received.
    pub actual: u32,
}

impl fmt::Display for FrameCorrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame CRC mismatch: trailer {:#010x}, payload checksums to {:#010x}",
            self.expected, self.actual
        )
    }
}

impl Error for FrameCorrupt {}

/// Whether an I/O error from [`read_frame`] is a detected CRC mismatch (as
/// opposed to a truncation, an oversized length, or a socket failure).
#[must_use]
pub fn is_frame_corrupt(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.is::<FrameCorrupt>())
}

/// Why a receive returned no item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The deadline expired with the queue still empty.
    Timeout,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// Why a send failed: the receiver is gone (the item is handed back).
#[derive(Debug)]
pub struct SendError<T>(pub T);

struct ChannelState<T> {
    items: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half of a [`bounded`] channel. Cloneable; dropping the last
/// clone disconnects the receiver.
pub struct BoundedSender<T> {
    channel: Arc<Channel<T>>,
}

/// The receiving half of a [`bounded`] channel (single consumer).
pub struct BoundedReceiver<T> {
    channel: Arc<Channel<T>>,
}

/// Creates a bounded blocking MPSC channel with room for `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity rendezvous channel is not
/// needed anywhere in this workspace and complicates the wakeup logic).
pub fn bounded<T>(capacity: usize) -> (BoundedSender<T>, BoundedReceiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be positive");
    let channel = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            items: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        BoundedSender {
            channel: Arc::clone(&channel),
        },
        BoundedReceiver { channel },
    )
}

impl<T> BoundedSender<T> {
    /// Enqueues `item`, **blocking while the queue is full** — the
    /// backpressure that keeps a fast producer from ballooning memory.
    ///
    /// # Errors
    ///
    /// Returns the item when the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        loop {
            if !state.receiver_alive {
                return Err(SendError(item));
            }
            if state.items.len() < self.channel.capacity {
                state.items.push_back(item);
                drop(state);
                self.channel.not_empty.notify_one();
                return Ok(());
            }
            state = self.channel.not_full.wait(state).expect("channel poisoned");
        }
    }
}

impl<T> Clone for BoundedSender<T> {
    fn clone(&self) -> Self {
        self.channel.state.lock().expect("channel poisoned").senders += 1;
        BoundedSender {
            channel: Arc::clone(&self.channel),
        }
    }
}

impl<T> Drop for BoundedSender<T> {
    fn drop(&mut self) {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake a receiver blocked on an empty queue so it observes the
            // disconnect instead of sleeping forever.
            self.channel.not_empty.notify_all();
        }
    }
}

impl<T> BoundedReceiver<T> {
    /// Dequeues the next item, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] when every sender is gone and the queue is
    /// drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.channel.not_full.notify_one();
                return Ok(item);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            state = self
                .channel
                .not_empty
                .wait(state)
                .expect("channel poisoned");
        }
    }

    /// Dequeues the next item, blocking until `deadline` at the latest — the
    /// bounded blocking receive that replaces hand-rolled sleep/poll loops.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when the deadline passes with the queue empty,
    /// [`RecvError::Disconnected`] when every sender is gone.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvError> {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.channel.not_full.notify_one();
                return Ok(item);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let (guard, _timeout) = self
                .channel
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("channel poisoned");
            state = guard;
        }
    }

    /// Blocks for at least one item, then moves **every queued item** into
    /// `batch` in one wakeup and returns how many arrived. This is the
    /// coalescing primitive: a writer thread draining its outbox with
    /// `recv_many` turns a burst of small sends into one buffered write.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] when every sender is gone and nothing is
    /// queued.
    pub fn recv_many(&self, batch: &mut Vec<T>) -> Result<usize, RecvError> {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        loop {
            if !state.items.is_empty() {
                let count = state.items.len();
                batch.extend(state.items.drain(..));
                drop(state);
                // Every waiting sender can make progress now.
                self.channel.not_full.notify_all();
                return Ok(count);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            state = self
                .channel
                .not_empty
                .wait(state)
                .expect("channel poisoned");
        }
    }

    /// Blocks for at least one item until `deadline`, then moves **every
    /// queued item** into `batch` in one wakeup and returns how many arrived
    /// — [`BoundedReceiver::recv_many`] with the bounded-wait contract of
    /// [`BoundedReceiver::recv_deadline`]. A dispatch loop draining its inbox
    /// with this turns a burst of frames into one pass over the batch.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when the deadline passes with the queue empty,
    /// [`RecvError::Disconnected`] when every sender is gone and nothing is
    /// queued.
    pub fn recv_many_deadline(
        &self,
        batch: &mut Vec<T>,
        deadline: Instant,
    ) -> Result<usize, RecvError> {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        loop {
            if !state.items.is_empty() {
                let count = state.items.len();
                batch.extend(state.items.drain(..));
                drop(state);
                // Every waiting sender can make progress now.
                self.channel.not_full.notify_all();
                return Ok(count);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let (guard, _timeout) = self
                .channel
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("channel poisoned");
            state = guard;
        }
    }
}

impl<T> Drop for BoundedReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.channel.state.lock().expect("channel poisoned");
        state.receiver_alive = false;
        state.items.clear();
        drop(state);
        // Senders blocked on a full queue must observe the disconnect.
        self.channel.not_full.notify_all();
    }
}

/// Writes one length-prefixed frame: u32 little-endian payload length, the
/// payload, then a u32 little-endian CRC32 of the payload. The caller
/// decides when to flush — batching frames before one flush is exactly the
/// coalescing the connection writer performs.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.write_all(&crc32(payload).to_le_bytes())
}

/// Encodes one frame — length prefix, payload, CRC trailer — into a byte
/// vector, exactly as [`write_frame`] would emit it. This is the form the
/// fault injector mutates before putting bytes on the wire.
///
/// # Panics
///
/// Panics when the payload exceeds [`MAX_FRAME_LEN`] (callers frame their
/// own messages; an oversized one is a programming error here).
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame exceeds MAX_FRAME_LEN"
    );
    let mut bytes = Vec::with_capacity(payload.len() + 4 + FRAME_TRAILER);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes
}

/// Reads one length-prefixed, CRC-trailed frame. Returns `Ok(None)` on a
/// clean EOF *at a frame boundary* (the peer closed after a complete frame);
/// an EOF inside a frame is an `UnexpectedEof` error — a truncated frame is
/// corruption, not a shutdown.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames whose declared length exceeds
/// [`MAX_FRAME_LEN`]; a payload that does not checksum to its trailer is an
/// [`io::ErrorKind::InvalidData`] error wrapping [`FrameCorrupt`] (test
/// with [`is_frame_corrupt`]) — damaged bytes are *detected*, never handed
/// to the payload parser.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a frame payload")
        } else {
            err
        }
    })?;
    let mut trailer = [0u8; FRAME_TRAILER];
    reader.read_exact(&mut trailer).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame CRC trailer",
            )
        } else {
            err
        }
    })?;
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameCorrupt { expected, actual },
        ));
    }
    Ok(Some(payload))
}

/// How many frames a connection queues on each side before backpressure.
const CONNECTION_QUEUE: usize = 1024;

/// How long [`Connection::finish`] (and drop) lets the writer thread drain
/// the outbox before forcing the socket shut. A peer that stopped reading
/// can wedge an in-flight `write_all` forever; a close must not inherit
/// that hang.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// A framed TCP connection with batched, backpressured queues on both sides.
///
/// Sends enqueue into a bounded outbox drained by a writer thread that
/// coalesces every queued frame into one buffered write + flush; receives
/// dequeue from a bounded inbox fed by a reader thread (when the inbox is
/// full the reader stops reading, which pushes back on the peer through TCP
/// flow control). Dropping the connection closes the socket and joins both
/// threads.
pub struct Connection {
    outbox: Option<BoundedSender<Vec<u8>>>,
    inbox: BoundedReceiver<Vec<u8>>,
    stream: TcpStream,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    read_fault: Arc<Mutex<Option<String>>>,
}

/// Applies one fault decision to one outgoing frame. Returns `false` when
/// the write side is finished (truncate-then-close fired or I/O failed).
fn write_frame_with_fault(
    sink: &mut BufWriter<&TcpStream>,
    stream: &TcpStream,
    frame: &[u8],
    action: FaultAction,
) -> bool {
    match action {
        FaultAction::Deliver => write_frame(sink, frame).is_ok(),
        FaultAction::Drop | FaultAction::Hang => true,
        FaultAction::Duplicate => {
            write_frame(sink, frame).is_ok() && write_frame(sink, frame).is_ok()
        }
        FaultAction::Delay { ms } => {
            // Flush what is already buffered so the delay is observable as
            // wire silence, then stall this frame and everything after it.
            let _ = sink.flush();
            std::thread::sleep(Duration::from_millis(ms));
            write_frame(sink, frame).is_ok()
        }
        FaultAction::BitFlip { bit } => {
            let mut bytes = encode_frame(frame);
            // Flip inside the payload+CRC body, never the length prefix: a
            // flipped length desynchronizes the stream instead of testing
            // the integrity check.
            let body_bits = ((bytes.len() - 4) * 8) as u64;
            let bit = (bit % body_bits) as usize;
            bytes[4 + bit / 8] ^= 1 << (bit % 8);
            sink.write_all(&bytes).is_ok()
        }
        FaultAction::TruncateClose { keep } => {
            let bytes = encode_frame(frame);
            let keep = 1 + (keep % (bytes.len() as u64 - 1)) as usize;
            let _ = sink.write_all(&bytes[..keep]);
            let _ = sink.flush();
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
    }
}

impl Connection {
    /// Connects to `addr` (e.g. `"127.0.0.1:4000"`).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket errors.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Connection::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects to `addr` with outgoing frames subjected to `plan` — the
    /// chaos-testing entry point: at every frame boundary the writer
    /// consults the plan's deterministic injector and delivers, drops,
    /// duplicates, bit-flips, truncates-then-closes, delays, or hangs.
    /// Incoming frames are untouched — faults on the other direction belong
    /// to the peer's plan.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket errors.
    pub fn connect_with_faults(addr: &str, plan: &FaultPlan) -> io::Result<Self> {
        Connection::build(TcpStream::connect(addr)?, Some(plan.injector(0)))
    }

    /// Wraps an accepted or connected stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket errors.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        Connection::build(stream, None)
    }

    fn build(stream: TcpStream, mut faults: Option<FaultInjector>) -> io::Result<Self> {
        stream.set_nodelay(true)?;

        let (outbox_tx, outbox_rx) = bounded::<Vec<u8>>(CONNECTION_QUEUE);
        let (inbox_tx, inbox_rx) = bounded::<Vec<u8>>(CONNECTION_QUEUE);
        let read_fault = Arc::new(Mutex::new(None::<String>));

        let write_stream = stream.try_clone()?;
        let writer = std::thread::spawn(move || {
            let mut sink = BufWriter::new(&write_stream);
            let mut batch: Vec<Vec<u8>> = Vec::new();
            let mut writing = true;
            // recv_many drains every frame queued since the last wakeup, so a
            // burst of sends becomes one write + one flush (outbox
            // coalescing). Exit on disconnect (sender dropped) or I/O error
            // (peer gone — the reader side reports it). When the fault
            // injector silences the connection the loop keeps draining so
            // senders never block, it just stops writing.
            while outbox_rx.recv_many(&mut batch).is_ok() {
                for frame in batch.drain(..) {
                    if !writing {
                        continue;
                    }
                    let ok = match faults.as_mut() {
                        // The zero-cost path: no plan, no decision — one
                        // branch per frame.
                        None => write_frame(&mut sink, &frame).is_ok(),
                        Some(injector) => write_frame_with_fault(
                            &mut sink,
                            &write_stream,
                            &frame,
                            injector.next_action(),
                        ),
                    };
                    if !ok {
                        // Keep draining (senders must not wedge), but stop
                        // touching the socket.
                        writing = false;
                    }
                }
                if writing && sink.flush().is_err() {
                    writing = false;
                }
            }
            if writing {
                let _ = sink.flush();
                let _ = write_stream.shutdown(Shutdown::Write);
            }
        });

        let read_stream = stream.try_clone()?;
        let fault_slot = Arc::clone(&read_fault);
        let reader = std::thread::spawn(move || {
            let mut source = io::BufReader::new(&read_stream);
            // A full inbox blocks this thread (bounded send), which stops the
            // socket reads: backpressure reaches the peer via TCP.
            loop {
                match read_frame(&mut source) {
                    Ok(Some(frame)) => {
                        if inbox_tx.send(frame).is_err() {
                            return;
                        }
                    }
                    Ok(None) => return,
                    Err(err) => {
                        // Record *why* the stream died — a CRC mismatch or a
                        // torn frame is corruption the owner must be able to
                        // distinguish from a clean hangup.
                        *fault_slot.lock().expect("read fault slot poisoned") =
                            Some(err.to_string());
                        return;
                    }
                }
            }
            // Dropping inbox_tx disconnects the inbox: recv returns
            // Disconnected and the owner knows the peer is gone.
        });

        Ok(Connection {
            outbox: Some(outbox_tx),
            inbox: inbox_rx,
            stream,
            writer: Some(writer),
            reader: Some(reader),
            read_fault,
        })
    }

    /// Queues `frame` for sending, blocking when the outbox is full.
    ///
    /// # Errors
    ///
    /// Returns the frame when the connection is closed.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), SendError<Vec<u8>>> {
        match &self.outbox {
            Some(outbox) => outbox.send(frame),
            None => Err(SendError(frame)),
        }
    }

    /// Receives the next frame, blocking until one arrives; `None` when the
    /// peer closed the connection.
    pub fn recv(&self) -> Option<Vec<u8>> {
        self.inbox.recv().ok()
    }

    /// Receives the next frame, blocking until `deadline` at the latest.
    ///
    /// # Errors
    ///
    /// Same contract as [`BoundedReceiver::recv_deadline`].
    pub fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvError> {
        self.inbox.recv_deadline(deadline)
    }

    /// Flushes queued frames and closes the sending side, so the peer's
    /// reader observes a clean EOF once everything queued has arrived. If the
    /// peer has stopped reading and the drain makes no progress within
    /// [`DRAIN_DEADLINE`], the socket is forced shut instead — finishing a
    /// connection never blocks forever on a wedged peer.
    pub fn finish(&mut self) {
        // Dropping the outbox sender lets the writer thread drain the queue,
        // flush, shut the write side down and exit.
        self.outbox = None;
        if let Some(writer) = self.writer.take() {
            let deadline = Instant::now() + DRAIN_DEADLINE;
            while !writer.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if !writer.is_finished() {
                let _ = self.stream.shutdown(Shutdown::Both);
            }
            let _ = writer.join();
        }
    }

    /// Why the reader side stopped, when it stopped on damage rather than a
    /// clean EOF: a CRC mismatch ([`FrameCorrupt`]), a torn frame, an
    /// oversized declared length, or a socket error. `None` while the reader
    /// is healthy or after a clean close — the owner uses this to tell "the
    /// peer hung up" from "the peer's bytes arrived damaged".
    pub fn read_fault(&self) -> Option<String> {
        self.read_fault
            .lock()
            .expect("read fault slot poisoned")
            .clone()
    }

    /// Forces both socket halves shut. Queued-but-unwritten frames are lost
    /// and the peer sees a reset rather than a clean EOF; both local threads
    /// (and a peer blocked reading this connection) unblock promptly. This is
    /// the remedy for a peer that is wedged or has been written off — use
    /// [`Connection::finish`] for a graceful close.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.finish();
        // Unblock the reader thread even if the peer never closes.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A listener handing out framed [`Connection`]s.
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Binds an ephemeral localhost port (the coordinator's listen socket:
    /// workers are told the resulting address).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket errors.
    pub fn bind_local() -> io::Result<Self> {
        Ok(Listener {
            inner: TcpListener::bind("127.0.0.1:0")?,
        })
    }

    /// The bound address (pass this to workers).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accepts the next connection, waiting at most until `deadline` — a
    /// worker that never dials in must not hang the coordinator forever.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the deadline passes, otherwise the socket error.
    pub fn accept_deadline(&self, deadline: Instant) -> io::Result<Connection> {
        self.inner.set_nonblocking(true)?;
        let result = loop {
            match self.inner.accept() {
                Ok((stream, _)) => break Ok(stream),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no connection before the deadline",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(err) => break Err(err),
            }
        };
        self.inner.set_nonblocking(false)?;
        let stream = result?;
        stream.set_nonblocking(false)?;
        Connection::from_stream(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn bounded_channel_delivers_in_order_across_threads() {
        let (tx, rx) = bounded::<u64>(4);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u64> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn bounded_send_blocks_on_full_queue_until_a_recv() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();

        let blocked = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&blocked);
        let sender = std::thread::spawn(move || {
            tx.send(3).unwrap();
            observed.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(blocked.load(Ordering::SeqCst), 0, "send must block");
        assert_eq!(rx.recv(), Ok(1));
        sender.join().unwrap();
        assert_eq!(blocked.load(Ordering::SeqCst), 1);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_deadline_times_out_and_then_disconnects() {
        let (tx, rx) = bounded::<u8>(1);
        let start = Instant::now();
        assert_eq!(
            rx.recv_deadline(start + Duration::from_millis(30)),
            Err(RecvError::Timeout)
        );
        assert!(Instant::now() - start >= Duration::from_millis(30));
        drop(tx);
        assert_eq!(
            rx.recv_deadline(Instant::now() + Duration::from_secs(1)),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn recv_many_drains_a_burst_in_one_wakeup() {
        let (tx, rx) = bounded::<u32>(16);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let mut batch = Vec::new();
        assert_eq!(rx.recv_many(&mut batch), Ok(5));
        assert_eq!(batch, vec![0, 1, 2, 3, 4]);
        drop(tx);
        assert_eq!(rx.recv_many(&mut batch), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_many_deadline_drains_bursts_and_times_out_when_idle() {
        let (tx, rx) = bounded::<u32>(16);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let mut batch = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        assert_eq!(rx.recv_many_deadline(&mut batch, deadline), Ok(4));
        assert_eq!(batch, vec![0, 1, 2, 3]);
        // Idle queue: the deadline must bound the wait.
        let start = Instant::now();
        assert_eq!(
            rx.recv_many_deadline(&mut batch, start + Duration::from_millis(30)),
            Err(RecvError::Timeout)
        );
        assert!(Instant::now() - start >= Duration::from_millis(30));
        assert_eq!(batch.len(), 4, "a timeout must not disturb the batch");
        // A sender arriving mid-wait wakes the drain before the deadline.
        let far = Instant::now() + Duration::from_secs(5);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
            drop(tx);
        });
        batch.clear();
        assert_eq!(rx.recv_many_deadline(&mut batch, far), Ok(1));
        assert_eq!(batch, vec![9]);
        producer.join().unwrap();
        assert_eq!(
            rx.recv_many_deadline(&mut batch, far),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn dropped_receiver_fails_sends_instead_of_blocking() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        drop(rx);
        // The queue was full; a dropped receiver must wake/fail the send.
        assert!(tx.send(2).is_err());
    }

    #[test]
    fn frames_round_trip_including_empty_and_eof_between_frames() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        write_frame(&mut buffer, &[0xAB; 300]).unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), vec![0xAB; 300]);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error_not_an_eof() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"payload").unwrap();
        buffer.truncate(6); // inside the payload
        let mut cursor = io::Cursor::new(buffer);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut buffer = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        buffer.extend_from_slice(b"x");
        let mut cursor = io::Cursor::new(buffer);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn connection_round_trips_a_burst_of_frames() {
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut conn = Connection::connect(&addr).unwrap();
            for i in 0..200u32 {
                conn.send(i.to_le_bytes().to_vec()).unwrap();
            }
            // Echo back everything the server returns doubled.
            let mut doubled = Vec::new();
            for _ in 0..200 {
                let frame = conn.recv().expect("server reply");
                doubled.push(u32::from_le_bytes(frame.try_into().unwrap()));
            }
            conn.finish();
            doubled
        });

        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        for _ in 0..200 {
            let frame = server.recv().expect("client frame");
            let value = u32::from_le_bytes(frame.try_into().unwrap());
            server.send((value * 2).to_le_bytes().to_vec()).unwrap();
        }
        let doubled = client.join().unwrap();
        assert_eq!(doubled, (0..200u32).map(|i| i * 2).collect::<Vec<_>>());
        // After the client's finish(), the server sees a clean close.
        assert!(server.recv().is_none());
    }

    #[test]
    fn frame_at_exactly_max_len_round_trips() {
        // The boundary case: a payload of exactly MAX_FRAME_LEN is legal on
        // both sides; one byte more is rejected by the writer.
        let payload = vec![0x5A_u8; MAX_FRAME_LEN];
        let mut buffer = Vec::with_capacity(MAX_FRAME_LEN + 8);
        write_frame(&mut buffer, &payload).unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let oversized = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut Vec::new(), &oversized).is_err());
    }

    #[test]
    fn crc_mismatch_is_a_detected_frame_corrupt_not_a_parse_error() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, br#"{"tag":"record","trial":7}"#).unwrap();
        // Damage one payload byte; length prefix and trailer stay intact.
        buffer[10] ^= 0x01;
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_frame_corrupt(&err), "must carry FrameCorrupt: {err}");
        let corrupt = err
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<FrameCorrupt>())
            .expect("inner FrameCorrupt");
        assert_ne!(corrupt.expected, corrupt.actual);
    }

    #[test]
    fn damaged_trailer_is_also_frame_corrupt() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"payload").unwrap();
        let last = buffer.len() - 1;
        buffer[last] ^= 0x80;
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(is_frame_corrupt(&err));
    }

    #[test]
    fn truncation_errors_are_not_frame_corrupt() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"payload").unwrap();
        buffer.truncate(6);
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(!is_frame_corrupt(&err), "truncation is a different failure");
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        let payload = b"the two framing paths must agree byte for byte";
        let mut written = Vec::new();
        write_frame(&mut written, payload).unwrap();
        assert_eq!(encode_frame(payload), written);
    }

    #[test]
    fn fault_plan_bit_flips_surface_as_read_faults_not_payloads() {
        use crate::fault::FaultPlan;

        let mut plan = FaultPlan::new(11);
        plan.grace = 0;
        plan.bit_flip = 1.0; // every frame arrives damaged
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut conn = Connection::connect_with_faults(&addr, &plan).unwrap();
            conn.send(b"this frame will be mangled".to_vec()).unwrap();
            conn.finish();
        });
        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        // The damaged frame must never surface as a payload; the reader
        // stops and records why.
        assert!(server.recv().is_none(), "corrupt frame must not deliver");
        let fault = server.read_fault().expect("read fault recorded");
        assert!(fault.contains("CRC"), "fault should name the CRC: {fault}");
        client.join().unwrap();
    }

    #[test]
    fn fault_plan_grace_then_drop_silences_after_the_hello() {
        use crate::fault::FaultPlan;

        let mut plan = FaultPlan::new(5);
        plan.grace = 1;
        plan.drop = 1.0; // everything after the grace frame vanishes
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut conn = Connection::connect_with_faults(&addr, &plan).unwrap();
            conn.send(b"hello".to_vec()).unwrap();
            for _ in 0..10 {
                conn.send(b"dropped".to_vec()).unwrap();
            }
            conn.finish();
        });
        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(server.recv().expect("grace frame"), b"hello");
        // Every later frame was dropped; the writer still drains and closes
        // cleanly, so the server sees EOF, not a hang.
        assert!(server.recv().is_none());
        assert!(
            server.read_fault().is_none(),
            "drops are silent, not damage"
        );
        client.join().unwrap();
    }

    #[test]
    fn fault_plan_duplicates_deliver_the_frame_twice() {
        use crate::fault::FaultPlan;

        let mut plan = FaultPlan::new(3);
        plan.grace = 0;
        plan.duplicate = 1.0;
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut conn = Connection::connect_with_faults(&addr, &plan).unwrap();
            conn.send(b"once".to_vec()).unwrap();
            conn.finish();
        });
        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(server.recv().expect("first copy"), b"once");
        assert_eq!(server.recv().expect("second copy"), b"once");
        assert!(server.recv().is_none());
        client.join().unwrap();
    }

    #[test]
    fn truncate_close_leaves_a_torn_frame_on_the_wire() {
        use crate::fault::FaultPlan;

        let mut plan = FaultPlan::new(17);
        plan.grace = 0;
        plan.truncate = 1.0;
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut conn = Connection::connect_with_faults(&addr, &plan).unwrap();
            conn.send(b"this frame is cut short mid-write".to_vec())
                .unwrap();
            // finish() must not wedge even though the socket is already shut.
            conn.finish();
        });
        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert!(server.recv().is_none(), "torn frame must not deliver");
        // A tear lands either as an in-frame EOF or (if the close races the
        // read) a reset — both are recorded, neither is a clean hangup.
        let fault = server.read_fault().expect("torn frame recorded");
        assert!(!fault.is_empty(), "fault description must not be empty");
        client.join().unwrap();
    }

    #[test]
    fn same_seed_same_fault_schedule_on_a_live_connection() {
        use crate::fault::FaultPlan;

        // Two runs with the same plan must deliver exactly the same subset
        // of frames — the reproducibility contract chaos runs rely on.
        let deliveries = |seed: u64| -> Vec<Vec<u8>> {
            let mut plan = FaultPlan::new(seed);
            plan.grace = 1;
            plan.drop = 0.5;
            let listener = Listener::bind_local().unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let client = std::thread::spawn(move || {
                let mut conn = Connection::connect_with_faults(&addr, &plan).unwrap();
                for i in 0..64u32 {
                    conn.send(i.to_le_bytes().to_vec()).unwrap();
                }
                conn.finish();
            });
            let server = listener
                .accept_deadline(Instant::now() + Duration::from_secs(5))
                .unwrap();
            let mut got = Vec::new();
            while let Some(frame) = server.recv() {
                got.push(frame);
            }
            client.join().unwrap();
            got
        };
        let first = deliveries(99);
        let second = deliveries(99);
        let other = deliveries(100);
        assert_eq!(first, second, "same seed, same schedule");
        assert!(first.len() < 64, "a 50% drop plan must drop something");
        assert!(!first.is_empty(), "the grace frame always lands");
        assert_ne!(first, other, "different seeds should diverge");
    }

    #[test]
    fn accept_deadline_times_out_without_a_dialer() {
        let listener = Listener::bind_local().unwrap();
        match listener.accept_deadline(Instant::now() + Duration::from_millis(40)) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::TimedOut),
            Ok(_) => panic!("accept without a dialer must time out"),
        }
    }
}
