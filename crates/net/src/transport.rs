//! A grown-up message transport: bounded blocking channels, length-prefixed
//! frames, and socket connections with coalescing writers.
//!
//! This module is the channel the distributed pieces of the workspace ship
//! bytes through. Three layers, each usable on its own:
//!
//! * [`bounded`] — std's capacity-limited blocking MPSC queue
//!   ([`sync_channel`]). Sends **block** when the queue is full
//!   (backpressure, not unbounded memory); a consumer takes one item with
//!   `recv`/`recv_timeout` and then whatever else is already queued with
//!   `try_iter` — how the connection writer batches frames.
//! * [`write_frame`]/[`read_frame`] — length-prefixed (u32 little-endian)
//!   framing with a CRC32 trailer over any `Write`/`Read`, so a TCP stream
//!   carries discrete, integrity-checked messages instead of a byte soup. A
//!   clean EOF *between* frames is distinguished from a truncated frame, and
//!   a damaged frame surfaces as a detected [`FrameCorrupt`] condition
//!   rather than parsing as garbage.
//! * [`Connection`]/[`Listener`] — a TCP connection with a writer thread
//!   (takes every frame queued in its bounded outbox, writes them all,
//!   flushes **once** — many small sends become one syscall) and a reader
//!   thread (feeds a bounded inbox; a slow consumer propagates
//!   backpressure to the peer through TCP flow control). A connection built
//!   with [`Connection::connect_with_faults`] consults a seeded
//!   [`FaultInjector`](crate::fault::FaultInjector) at every outgoing frame
//!   boundary; without one the fault hook is a single branch per frame.
//!
//! The orchestration layer in `agreement-core` speaks JSON inside these
//! frames; this module neither knows nor cares — payloads are opaque bytes.

use std::error::Error;
use std::fmt;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agreement_analysis::crc32;

use crate::fault::{FaultAction, FaultInjector, FaultPlan};

/// Largest accepted frame payload (64 MiB): a corrupted length prefix must
/// not become an attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The CRC32 trailer appended after every frame payload.
const FRAME_TRAILER: usize = 4;

/// The most [`read_frame`] reserves for a payload before its bytes arrive.
pub const FRAME_RESERVE: usize = 64 << 10;

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

/// Creates a bounded blocking MPSC channel with room for `capacity` items:
/// std's [`sync_channel`]. Sends **block** while the queue is full
/// (backpressure, not unbounded memory).
///
/// # Panics
///
/// Panics if `capacity` is zero: std's zero-capacity channel is a
/// rendezvous, under which a send waits for a receive — not a queue.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be positive");
    let (sender, receiver) = sync_channel(capacity);
    (Sender(sender), receiver)
}

/// The sending half of a [`bounded`] channel: std's [`SyncSender`] with a
/// [`SendError`] that is never `Copy`. std's is `Copy` whenever the item
/// is, so a caller discarding a failed send with `drop(..)` — as
/// `benchmark/src/layers.rs` does — trips rustc's `dropping_copy_types`.
pub struct Sender<T>(SyncSender<T>);

impl<T> Sender<T> {
    /// Enqueues `item`, **blocking while the queue is full**.
    ///
    /// # Errors
    ///
    /// Returns the item when the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.0.send(item).map_err(|err| SendError(err.0))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

/// Why a send failed: the receiver is gone (the item is handed back).
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Writes one length-prefixed frame: u32 little-endian payload length, the
/// payload, then a u32 little-endian CRC32 of the payload. The caller
/// decides when to flush — batching frames before one flush is exactly the
/// coalescing the connection writer performs. This is the one place the
/// frame layout is spelled out.
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
/// vector: [`write_frame`] into memory. This is the form the fault injector
/// mutates before putting bytes on the wire.
///
/// # Panics
///
/// Panics when the payload exceeds [`MAX_FRAME_LEN`] (callers frame their
/// own messages; an oversized one is a programming error here).
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 4 + FRAME_TRAILER);
    write_frame(&mut bytes, payload).expect("frame exceeds MAX_FRAME_LEN");
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
    // The buffer grows with the bytes that arrive: a prefix alone (a bit flip,
    // a hostile peer) commits at most `FRAME_RESERVE`, not its declared length.
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    if reader.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF inside a frame payload",
        ));
    }
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
    outbox: Option<Sender<Vec<u8>>>,
    // std's `Receiver` is not `Sync`, and a connection is shared across
    // threads (behind the session's `Arc`). Only one thread ever receives,
    // so the lock is uncontended.
    inbox: Mutex<Receiver<Vec<u8>>>,
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
            let mut writing = true;
            // One wakeup takes every frame queued since the last, so a burst
            // of sends becomes one write + one flush (outbox coalescing).
            // Exit on disconnect (sender dropped) or I/O error (peer gone —
            // the reader side reports it). When the fault injector silences
            // the connection the loop keeps draining so senders never block,
            // it just stops writing.
            while let Ok(first) = outbox_rx.recv() {
                for frame in std::iter::once(first).chain(outbox_rx.try_iter()) {
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
            inbox: Mutex::new(inbox_rx),
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
        self.inbox().recv().ok()
    }

    /// Receives the next frame, blocking until `deadline` at the latest.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the deadline passes with nothing
    /// received, [`RecvTimeoutError::Disconnected`] when the peer closed the
    /// connection.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<Vec<u8>, RecvTimeoutError> {
        self.inbox()
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
    }

    fn inbox(&self) -> std::sync::MutexGuard<'_, Receiver<Vec<u8>>> {
        self.inbox.lock().expect("inbox lock poisoned")
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

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bounded_refuses_a_rendezvous_capacity() {
        let _ = bounded::<u8>(0);
    }

    #[test]
    fn a_connection_is_shared_across_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Connection>();
    }

    #[test]
    fn recv_deadline_times_out_and_then_reports_the_close() {
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut client = Connection::connect(&addr).unwrap();
        let server = listener
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        let start = Instant::now();
        assert_eq!(
            server.recv_deadline(start + Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(Instant::now() - start >= Duration::from_millis(30));
        client.send(b"late".to_vec()).unwrap();
        assert_eq!(
            server.recv_deadline(Instant::now() + Duration::from_secs(5)),
            Ok(b"late".to_vec())
        );
        client.finish();
        assert_eq!(
            server.recv_deadline(Instant::now() + Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
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
