//! The worker half: connects back to the coordinator, executes the ranges it
//! is handed, and answers each with one block frame of its records. This is
//! what `scenarios --worker` and the `orchestrate_worker` binary run; it
//! returns when the coordinator says shutdown or hangs up.

use std::io;

use agreement_net::transport::Connection;
use agreement_sim::TrialWorkspace;

use super::wire::{Message, Run, PROTO_VERSION};
use super::{FaultPlan, MAX_RANGE_TRIALS};
use crate::block::encode_block;
use crate::experiments::Scale;
use crate::record::TrialRecord;
use crate::runner::Campaign;
use crate::scenario::{scenario_registry, ScenarioSpec};

/// What a worker carries from one range to the next: the spec it looked up
/// for the last scenario it served — the registry is built and searched
/// once per scenario, not once per range — and one trial workspace per
/// campaign thread, warm from the first range on.
#[derive(Default)]
struct Warm {
    /// The registry scale and id the spec was found under, and the spec.
    spec: Option<(Scale, String, ScenarioSpec)>,
    workspaces: Vec<TrialWorkspace>,
}

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
    // split never shows in the records. The core count is read once: the
    // probe reads the affinity mask and the cgroup files, tens of
    // microseconds a range.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let campaign = Campaign::with_threads(cores);
    let mut warm = Warm::default();
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
        if answer(&conn, &run, &campaign, &mut warm).is_err() {
            return Ok(());
        }
    }
    conn.finish();
    Ok(())
}

/// Answers one run frame with exactly one frame: a block of all its
/// records, or an in-protocol error. `Err` means the coordinator is gone.
fn answer(conn: &Connection, run: &Run, campaign: &Campaign, warm: &mut Warm) -> Result<(), ()> {
    let frame = match execute(run, campaign, warm) {
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
/// executes its range in the worker's warm workspaces.
fn execute(run: &Run, campaign: &Campaign, warm: &mut Warm) -> Result<Vec<TrialRecord>, String> {
    // The cap holds whatever the frame said: a block past it might not fit
    // a transport frame.
    if run.lo > run.hi || run.hi - run.lo > MAX_RANGE_TRIALS {
        return Err(format!(
            "{}..{} is not a range of at most {MAX_RANGE_TRIALS} trials",
            run.lo, run.hi
        ));
    }
    let known =
        |(scale, id, _): &(Scale, String, ScenarioSpec)| *scale == run.scale && *id == run.scenario;
    if !warm.spec.as_ref().is_some_and(known) {
        let spec = scenario_registry(run.scale)
            .into_iter()
            .find(|spec| spec.id() == run.scenario)
            .ok_or_else(|| {
                format!(
                    "no scenario '{}' in the {:?} registry",
                    run.scenario, run.scale
                )
            })?;
        warm.spec = Some((run.scale, run.scenario.clone(), spec));
    }
    let (_, _, spec) = warm.spec.as_mut().expect("resolved above");
    spec.trials = run.trials;
    spec.base_seed = run.base_seed;
    spec.limits = run.limits;
    spec.run_range_records_in(campaign, &mut warm.workspaces, run.lo, run.hi)
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
            let err = execute(&run, &Campaign::serial(), &mut Warm::default()).unwrap_err();
            assert!(err.contains("at most 65536 trials"), "{err}");
        }
    }

    #[test]
    fn ranges_served_warm_match_ranges_run_cold() {
        // Two scenarios of different sizes and models, interleaved, with
        // the wire's overrides: every range through one worker's warm state
        // gives the records a cold run of the same range gives.
        let registry = scenario_registry(Scale::Quick);
        let find = |id: &str| registry.iter().find(|spec| spec.id() == id).expect(id);
        let windowed = find("e1/reset-tolerant/split-vote/split/n13t2");
        let psync = find("psync/ben-or/benign-eventual/unanimous-1/n7t1");
        let mut warm = Warm::default();
        let ranges = [
            (windowed, 0, 3),
            (windowed, 3, 7),
            (psync, 0, 4),
            (windowed, 7, 9),
            (psync, 4, 6),
        ];
        for (job, (spec, lo, hi)) in ranges.into_iter().enumerate() {
            let mut spec = spec.clone();
            let run = Run {
                job: job as u64,
                scenario: spec.id(),
                scale: Scale::Quick,
                trials: 9,
                base_seed: spec.base_seed + 11,
                limits: spec.limits,
                lo,
                hi,
            };
            let served = execute(&run, &Campaign::with_threads(2), &mut warm).unwrap();
            (spec.trials, spec.base_seed) = (run.trials, run.base_seed);
            let cold = spec.run_range_records(&Campaign::serial(), lo, hi).unwrap();
            assert_eq!(served, cold, "{} {lo}..{hi}", run.scenario);
        }
    }
}
