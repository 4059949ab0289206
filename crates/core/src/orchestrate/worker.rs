//! The worker half: connects back to the coordinator, executes the ranges it
//! is handed, and streams the records as block frames. This is what
//! `scenarios --worker` and the `orchestrate_worker` binary run; it returns
//! when the coordinator says shutdown or hangs up.

use std::io;

use agreement_net::transport::Connection;

use super::wire::{Message, Run, PROTO_VERSION};
use super::{FaultPlan, MAX_BATCH_RECORDS};
use crate::block::encode_block;
use crate::runner::Campaign;
use crate::scenario::scenario_registry;

/// Serves one coordinator at `addr` until shutdown or disconnect.
///
/// When the `AGREEMENT_FAULTS` environment variable carries a
/// [`FaultPlan`] spec, the worker's outgoing connection runs through the
/// deterministic fault injector — this is the env-gated hook the
/// orchestrator's [`Orchestrator::worker_faults`](super::Orchestrator::worker_faults)
/// uses, and chaos tests can set directly. An unset variable costs nothing;
/// a malformed one is a loud error, never a silently fault-free run.
///
/// # Errors
///
/// Propagates connection errors and a malformed fault spec; execution
/// errors are reported to the coordinator in-protocol, not returned
/// here.
pub fn serve(addr: &str) -> io::Result<()> {
    let faults = FaultPlan::from_env();
    let mut conn = match faults.map_err(|err| io::Error::new(io::ErrorKind::InvalidInput, err))? {
        Some(plan) => Connection::connect_with_faults(addr, &plan)?,
        None => Connection::connect(addr)?,
    };
    let hello = Message::Hello {
        pid: u64::from(std::process::id()),
        proto: PROTO_VERSION,
    };
    if conn.send(hello.encode()).is_err() {
        return Ok(());
    }
    // Range trials fan out across this process's cores exactly like a
    // local campaign; determinism is per-trial, so the process/thread
    // split never shows in the records.
    let campaign = Campaign::parallel();
    // Guard against duplicated run frames (a faulted coordinator→worker
    // leg can re-deliver one): re-executing would re-stream records the
    // coordinator has already consumed.
    let mut last_job: Option<u64> = None;
    while let Some(frame) = conn.recv() {
        // Shutdown, or anything this worker cannot act on: stop serving.
        let Ok(Message::Run(run)) = Message::decode(&frame) else {
            break;
        };
        if last_job == Some(run.job) {
            continue;
        }
        last_job = Some(run.job);
        if answer(&conn, &run, &campaign).is_err() {
            return Ok(());
        }
    }
    conn.finish();
    Ok(())
}

/// Resolves one run frame into a spec (registry id + wire overrides),
/// executes its range and streams the answer: the records in blocks of
/// `run.batch` and a `range_done`, or an in-protocol error. `Err` means the
/// coordinator is gone.
fn answer(conn: &Connection, run: &Run, campaign: &Campaign) -> Result<(), ()> {
    let send = |frame: Vec<u8>| conn.send(frame).map_err(drop);
    let (job, lo, hi) = (run.job, run.lo, run.hi);
    let records = scenario_registry(run.scale)
        .into_iter()
        .find(|spec| spec.id() == run.scenario)
        .ok_or_else(|| {
            format!(
                "no scenario '{}' in the {:?} registry",
                run.scenario, run.scale
            )
        })
        .and_then(|mut spec| {
            spec.trials = run.trials;
            spec.base_seed = run.base_seed;
            spec.limits = run.limits;
            spec.run_range_records(campaign, lo, hi)
                .map_err(|err| err.to_string())
        });
    match records {
        Ok(records) => {
            // The bounds hold whatever the frame said: zero would not chunk,
            // and a block past the cap would not fit a transport frame.
            let batch = run.batch.clamp(1, MAX_BATCH_RECORDS) as usize;
            for block in records.chunks(batch) {
                send(encode_block(job, block, run.compress))?;
            }
            send(Message::RangeDone { job, lo, hi }.encode())
        }
        Err(message) => send(Message::WorkerError { job, message }.encode()),
    }
}
