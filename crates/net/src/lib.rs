//! The byte transport under the multi-process campaign orchestration.
//!
//! [`transport`] is bounded blocking channels, length-prefixed CRC-checked
//! framing, and coalescing socket connections — payloads are opaque bytes;
//! `agreement-core`'s orchestration speaks its wire format inside the frames.
//! A frame damaged in flight is detected by its CRC and recorded as the
//! connection's [`read_fault`](transport::Connection::read_fault), never
//! handed on as a payload.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod transport;
