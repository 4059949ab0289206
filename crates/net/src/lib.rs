//! The byte transport under the multi-process campaign orchestration.
//!
//! [`transport`] is bounded blocking channels, length-prefixed CRC-checked
//! framing, and coalescing socket connections — payloads are opaque bytes;
//! `agreement-core`'s orchestration speaks its wire format inside the frames.
//! [`fault`] is the seeded, replayable fault injector a connection consults
//! at every outgoing frame boundary, which is how the chaos tests point the
//! paper's adversarial stance at this wire stack itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod transport;
