//! Standalone orchestration worker: dials the coordinator given by
//! `--connect <addr>` and serves sharded seed ranges until shutdown.
//!
//! The `scenarios` binary spawns *itself* with `--worker` for everyday use;
//! this separate binary exists so the root package's integration tests
//! (`tests/orchestration.rs`) can spawn a worker via
//! `CARGO_BIN_EXE_orchestrate_worker` without depending on the bench crate's
//! binaries.

use std::process::ExitCode;

use agreement::core::orchestrate::worker;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut addr = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => addr = args.next(),
            other => {
                eprintln!("orchestrate_worker: unexpected argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: orchestrate_worker --connect <addr>");
        return ExitCode::FAILURE;
    };
    match worker::serve(&addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("orchestrate_worker: {err}");
            ExitCode::FAILURE
        }
    }
}
