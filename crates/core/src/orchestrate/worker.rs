//! The worker half: connects back to the coordinator, executes the ranges it
//! is handed, and answers each with one block frame of its records. This is
//! what `scenarios --worker` and the `orchestrate_worker` binary run; it
//! returns when the coordinator says shutdown or hangs up.

use std::io;

use agreement_net::transport::Connection;

use super::wire::{Message, Run, PROTO_VERSION};
use super::{FaultPlan, MAX_RANGE_TRIALS};
use crate::block::encode_block;
use crate::record::TrialRecord;
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
    // leg can re-deliver one): re-executing would re-send a block the
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

/// Answers one run frame with exactly one frame: a block of all its
/// records, or an in-protocol error. `Err` means the coordinator is gone.
fn answer(conn: &Connection, run: &Run, campaign: &Campaign) -> Result<(), ()> {
    let frame = match execute(run, campaign) {
        Ok(records) => encode_block(run.job, &records, false),
        Err(message) => Message::WorkerError {
            job: run.job,
            message,
        }
        .encode(),
    };
    conn.send(frame).map_err(drop)
}

/// Resolves one run frame into a spec (registry id + wire overrides) and
/// executes its range.
fn execute(run: &Run, campaign: &Campaign) -> Result<Vec<TrialRecord>, String> {
    // The cap holds whatever the frame said: a block past it might not fit
    // a transport frame.
    if run.lo > run.hi || run.hi - run.lo > MAX_RANGE_TRIALS {
        return Err(format!(
            "{}..{} is not a range of at most {MAX_RANGE_TRIALS} trials",
            run.lo, run.hi
        ));
    }
    let mut spec = scenario_registry(run.scale)
        .into_iter()
        .find(|spec| spec.id() == run.scenario)
        .ok_or_else(|| {
            format!(
                "no scenario '{}' in the {:?} registry",
                run.scenario, run.scale
            )
        })?;
    spec.trials = run.trials;
    spec.base_seed = run.base_seed;
    spec.limits = run.limits;
    spec.run_range_records(campaign, run.lo, run.hi)
        .map_err(|err| err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn a_range_past_the_cap_is_refused_before_it_runs() {
        let spec = scenario_registry(Scale::Quick).remove(0);
        for (lo, hi) in [(0, MAX_RANGE_TRIALS + 1), (5, 4)] {
            let run = Run {
                job: 1,
                scenario: spec.id(),
                scale: Scale::Quick,
                trials: 1 << 20,
                base_seed: spec.base_seed,
                limits: spec.limits,
                lo,
                hi,
            };
            let err = execute(&run, &Campaign::serial()).unwrap_err();
            assert!(err.contains("at most 65536 trials"), "{err}");
        }
    }
}
