//! Shared support for the `scenarios` and `all_experiments` binaries.
//!
//! Measurement lives elsewhere: the repository's benchmark is the standalone
//! `benchmark/` package declared by `BENCHMARK.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
