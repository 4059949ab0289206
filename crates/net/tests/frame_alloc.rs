//! What [`read_frame`] commits to a payload before its bytes arrive.
//!
//! A frame's length prefix is four bytes anyone can send: a bit flip, or a
//! peer that declares [`MAX_FRAME_LEN`] and closes. The reader must allocate
//! for the bytes that actually arrive — at most [`FRAME_RESERVE`] up front —
//! not for the length it was promised. This lives in a test binary of its
//! own because it installs a `#[global_allocator]` that records the largest
//! request made by the thread under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor};
use std::sync::atomic::{AtomicUsize, Ordering};

use agreement_net::transport::{read_frame, write_frame, FRAME_RESERVE, MAX_FRAME_LEN};

/// Forwards to the system allocator, noting the largest size requested by a
/// thread that has armed it.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only an atomic
// and a const-initialized thread-local, neither of which allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Reads one frame from `bytes`, returning the outcome and the largest
/// allocation it requested.
fn read_measured(bytes: Vec<u8>) -> (io::Result<Option<Vec<u8>>>, usize) {
    let mut cursor = Cursor::new(bytes);
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let outcome = read_frame(&mut cursor);
    ARMED.with(|armed| armed.set(false));
    (outcome, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_declared_length_commits_memory_only_as_its_bytes_arrive() {
    let declared = (MAX_FRAME_LEN as u32).to_le_bytes();

    // The prefix alone: an EOF inside the payload, and nothing past the
    // reserve allocated for the 64 MiB it promised.
    let (outcome, largest) = read_measured(declared.to_vec());
    let err = outcome.expect_err("a frame cut after its prefix");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(err.to_string().contains("inside a frame payload"), "{err}");
    assert!(
        largest <= FRAME_RESERVE,
        "allocated {largest} bytes for a payload that never came"
    );

    // Some of the payload: the buffer follows what arrived, within the
    // doubling a growing vector does.
    let arrived = 5 * FRAME_RESERVE;
    let mut bytes = declared.to_vec();
    bytes.resize(declared.len() + arrived, 0x5A);
    let (outcome, largest) = read_measured(bytes);
    assert_eq!(
        outcome.expect_err("a frame cut inside its payload").kind(),
        io::ErrorKind::UnexpectedEof
    );
    assert!(
        largest <= 2 * arrived,
        "allocated {largest} bytes for {arrived} that arrived"
    );

    // A whole frame still reads back.
    let payload = vec![0xA5; 3 * FRAME_RESERVE + 17];
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &payload).unwrap();
    let (outcome, _) = read_measured(bytes);
    assert_eq!(outcome.unwrap(), Some(payload));
}
