//! Lower-bound machinery for the reproduction of Lewko & Lewko (PODC 2013).
//!
//! The paper's main contribution is a technique for proving exponential lower
//! bounds on the running time of randomized agreement against powerful
//! adversaries, built from four ingredients — all implemented and numerically
//! exercised here:
//!
//! * **Hamming geometry** on configuration space ([`hamming_distance`],
//!   [`distance_between_sets`], [`in_ball`]; Definitions 6–8).
//! * **Product distributions** over configurations, with the coordinate-wise
//!   interpolation of Lemmas 14/21 ([`ProductDistribution`]).
//! * **Talagrand's inequality** in its Hamming form (Lemma 9):
//!   [`talagrand_bound`], [`check_talagrand`], [`worst_case_ratio`], and the
//!   thresholds [`tau`] / [`eta`] derived from it.
//! * **The `Z^k` recursion** (Definitions 10–12, Lemmas 11/13), computed
//!   exactly on an abstract model of the Section 3 protocol
//!   ([`ZSetAnalysis`], [`MiniResetTolerantKernel`]).
//!
//! [`window_bound`], [`success_probability`] and friends expose the concrete
//! constants of Theorem 5, and [`Summary`] / [`exponential_fit`] are the
//! statistics used to compare measured running times against that envelope.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod crc;
mod fnv;
mod hamming;
mod json;
mod lower_bound;
mod lz;
mod product;
mod stats;
mod talagrand;
mod varint;
mod zsets;

pub use crc::{crc32, Crc32, CRC32_TABLE};
pub use fnv::{fnv1a_64, Fnv64, FNV64_OFFSET, FNV64_PRIME};
pub use hamming::{distance_between_sets, distance_to_set, hamming_distance, in_ball};
pub use json::{JsonError, JsonMembers, JsonReader, JsonValue, JsonWriter, MAX_JSON_DEPTH};
pub use lower_bound::{
    alpha, inequality_three_rhs, paper_constant, per_window_failure, success_probability,
    window_bound,
};
pub use lz::{lz_compress, lz_decompress, MIN_MATCH, WINDOW};
pub use product::ProductDistribution;
pub use stats::{
    exponential_fit, linear_fit, ExponentialFit, Histogram, HistogramBucket, LinearFit, Summary,
};
pub use talagrand::{check_talagrand, eta, talagrand_bound, tau, worst_case_ratio, TalagrandCheck};
pub use varint::{read_varint, write_varint, zigzag_decode, zigzag_encode, MAX_VARINT_LEN};
pub use zsets::{
    AbstractConfig, AbstractState, LevelSeparation, MiniResetTolerantKernel, ProductKernel,
    TransitionKernel, UniformWindow, ZSetAnalysis,
};
