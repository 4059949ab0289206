//! Multi-trial campaign runner: protocol × adversary × configuration,
//! repeated over seeds, distilled into per-trial records.
//!
//! A [`TrialPlan`] describes *what* to run; a [`Campaign`] decides *how* —
//! serially or fanned out across worker threads, one trial per seed. The
//! environment this workspace builds in is offline, so the fan-out is a
//! self-contained `std::thread` work-stealing pool rather than rayon; the
//! scheduling discipline is the same (a shared atomic trial counter), and
//! results are written into per-trial slots so the record stream is always
//! in trial order. That makes every record stream — and everything derived
//! from one, aggregates included — **bit-identical** across thread counts,
//! including the serial path: parallelism changes only wall-clock time,
//! never results.
//!
//! Each worker owns a reusable
//! [`TrialWorkspace`](agreement_sim::TrialWorkspace): trials run
//! un-instrumented (`NoProbe` — nothing observes a campaign trial but its
//! record) inside an execution core whose allocations persist from seed to
//! seed. The
//! trial's [`RunOutcome`] is distilled into a
//! [`TrialRecord`](crate::TrialRecord) *inside* the worker; aggregation into
//! an [`Aggregate`] is one consumer of the record stream
//! ([`Aggregate::from_records`]), the report sinks of [`crate::record`] are
//! the others. The workspace path is bit-identical to running every trial on
//! a fresh core, traced or not — pinned by the equivalence tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use agreement_analysis::Summary;
use agreement_model::{InputAssignment, ProtocolBuilder, SystemConfig};
use agreement_sim::{BuiltAdversary, RunLimits, TrialWorkspace};

use crate::record::TrialRecord;

/// The static description of a batch of trials.
#[derive(Debug, Clone)]
pub struct TrialPlan {
    /// System configuration.
    pub cfg: SystemConfig,
    /// Input assignment used in every trial.
    pub inputs: InputAssignment,
    /// Engine limits per trial.
    pub limits: RunLimits,
    /// Number of trials.
    pub trials: u64,
    /// Base seed; trial `i` uses `base_seed.wrapping_add(i)`, so a base near
    /// `u64::MAX` wraps to 0 identically in debug and release builds.
    pub base_seed: u64,
}

impl TrialPlan {
    /// A plan with the given configuration and inputs, default limits and 20
    /// trials.
    pub fn new(cfg: SystemConfig, inputs: InputAssignment) -> Self {
        TrialPlan {
            cfg,
            inputs,
            limits: RunLimits::standard(),
            trials: 20,
            base_seed: 0x5EED,
        }
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the per-trial limits.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }
}

/// How a campaign schedules its trials across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Worker count; `0` means one worker per available core.
    threads: usize,
}

impl Default for Campaign {
    /// The default campaign uses every available core.
    fn default() -> Self {
        Campaign::parallel()
    }
}

impl Campaign {
    /// Runs trials one after another on the calling thread.
    pub const fn serial() -> Self {
        Campaign { threads: 1 }
    }

    /// Fans trials out over one worker per available core.
    pub const fn parallel() -> Self {
        Campaign { threads: 0 }
    }

    /// Fans trials out over exactly `threads` workers (`0` = per-core).
    pub const fn with_threads(threads: usize) -> Self {
        Campaign { threads }
    }

    pub(crate) fn worker_count(&self, trials: u64) -> usize {
        // The probe reads the affinity mask and the cgroup files (tens of
        // microseconds), so only a campaign that asked for it pays it.
        let requested = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            threads => threads,
        };
        requested.clamp(1, trials.max(1) as usize)
    }

    /// Executes the seeded trials `lo..hi` and returns their results **in
    /// trial order**, regardless of which worker ran which trial.
    ///
    /// Every worker (the calling thread included, on the serial path) owns
    /// one [`TrialWorkspace`] for its whole run: `run_one` executes each
    /// claimed trial inside it, so core allocations are reused from seed to
    /// seed instead of rebuilt per trial. With `kept`, the workspaces are the
    /// caller's — the list grows to the worker count — and a caller that
    /// passes the same list again also reuses them from call to call;
    /// without, each worker makes its own and drops it when it is done.
    /// Which worker ran a trial never affects its result (executions are
    /// seed-deterministic and the workspace leaks no state between trials),
    /// so the stream stays bit-identical across thread counts. Trial `t` also
    /// runs identically whether it is reached as part of `0..trials` or as
    /// part of a shard `lo..hi` (its seed and workspace semantics depend only
    /// on `t`), which is what lets a multi-process orchestrator split a
    /// campaign into ranges and merge the streams bit-identically.
    fn run_trials_range<T: Send>(
        &self,
        kept: Option<&mut Vec<TrialWorkspace>>,
        lo: u64,
        hi: u64,
        run_one: impl Fn(&mut TrialWorkspace, u64) -> T + Sync,
    ) -> Vec<T> {
        let count = hi.saturating_sub(lo);
        let workers = self.worker_count(count);
        let mut kept = kept.map(|list| {
            if list.len() < workers {
                list.resize_with(workers, TrialWorkspace::new);
            }
            list.iter_mut()
        });
        let mut next_kept = || kept.as_mut().and_then(Iterator::next);
        if workers <= 1 {
            let mut fresh = TrialWorkspace::new();
            let workspace = next_kept().unwrap_or(&mut fresh);
            return (lo..hi).map(|t| run_one(workspace, t)).collect();
        }
        let next = AtomicU64::new(lo);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (next, slots, run_one) = (&next, &slots, &run_one);
                let mut kept = next_kept();
                scope.spawn(move || {
                    // The workspace is on its worker's stack while it runs
                    // (kept ones sit side by side in their list, where two
                    // workers' clocks and counters would share cache lines),
                    // and one nobody keeps dies with its worker: left for the
                    // spawning thread to free, it cost a two-thread range of
                    // 2 500 20 µs trials 5–10 %.
                    let mut workspace = kept.as_deref_mut().map(std::mem::take).unwrap_or_default();
                    loop {
                        let trial = next.fetch_add(1, Ordering::Relaxed);
                        if trial >= hi {
                            break;
                        }
                        let outcome = run_one(&mut workspace, trial);
                        *slots[(trial - lo) as usize]
                            .lock()
                            .expect("trial slot poisoned") = Some(outcome);
                    }
                    if let Some(kept) = kept {
                        *kept = workspace;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("trial slot poisoned")
                    .expect("every trial index below the counter was executed")
            })
            .collect()
    }

    /// Runs `plan.trials` executions of *any* execution model and returns one
    /// [`TrialRecord`] per trial, **in trial order** regardless of thread
    /// count. `make_adversary` receives each trial's seed and returns a
    /// [`BuiltAdversary`] (typically from an `AdversaryFactory`); the
    /// campaign never inspects the model — [`BuiltAdversary::run`] does. This
    /// is the entry point the scenario layer uses.
    pub fn run_records<F>(
        &self,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
    ) -> Vec<TrialRecord>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        self.run_records_range(plan, builder, make_adversary, 0, plan.trials)
    }

    /// Runs only the trials `lo..hi` of `plan` and returns their records in
    /// trial order — the shard a multi-process orchestrator hands one worker.
    /// Record `t` of a range run is bit-identical to record `t` of a full
    /// [`Campaign::run_records`] run (trial seeds are
    /// `base_seed.wrapping_add(t)` regardless of the range), so concatenating
    /// the ranges `0..a`, `a..b`, …, `z..trials` reproduces the
    /// single-process stream exactly.
    pub fn run_records_range<F>(
        &self,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
        lo: u64,
        hi: u64,
    ) -> Vec<TrialRecord>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        self.run_plan_range(None, plan, builder, make_adversary, lo, hi)
    }

    /// [`Campaign::run_records_range`] inside the caller's `workspaces`, one
    /// per worker: a caller that runs many short ranges (the schedule search
    /// runs one per generation) passes the same list every time and pays for
    /// cold cores once, not once per range. The list grows to the worker
    /// count on demand; an empty one is a fine start.
    pub fn run_records_range_in<F>(
        &self,
        workspaces: &mut Vec<TrialWorkspace>,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
        lo: u64,
        hi: u64,
    ) -> Vec<TrialRecord>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        self.run_plan_range(Some(workspaces), plan, builder, make_adversary, lo, hi)
    }

    fn run_plan_range<F>(
        &self,
        kept: Option<&mut Vec<TrialWorkspace>>,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
        lo: u64,
        hi: u64,
    ) -> Vec<TrialRecord>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        self.run_trials_range(kept, lo, hi.min(plan.trials), |workspace, trial| {
            // An overflow check here would panic in debug builds and wrap in
            // release ones (worker processes are release binaries): two
            // streams from one command.
            let seed = plan.base_seed.wrapping_add(trial); // base_seed + trial mod 2^64
            let mut adversary = make_adversary(seed);
            let outcome = workspace.run_built(
                plan.cfg,
                &plan.inputs,
                builder,
                &mut adversary,
                seed,
                plan.limits,
            );
            TrialRecord::from_outcome(trial, seed, &outcome, &plan.inputs)
        })
    }
}

/// Aggregated results over a batch of trials.
///
/// Since the structured-record redesign this is a *derived view*: it is
/// computed from a [`TrialRecord`] stream by [`Aggregate::from_records`]
/// (today also available packaged as a
/// [`ScenarioReport`](crate::ScenarioReport) with distributions), and kept
/// in this exact shape so the E1–E10 tables stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of trials run.
    pub trials: u64,
    /// Fraction of trials in which agreement held.
    pub agreement_rate: f64,
    /// Fraction of trials in which validity held.
    pub validity_rate: f64,
    /// Fraction of trials in which every correct processor decided within the limit.
    pub termination_rate: f64,
    /// Fraction of trials with at least one recorded violation.
    pub violation_rate: f64,
    /// Summary of the window/step count at which the last correct processor
    /// decided (undecided trials contribute the limit).
    pub decision_time: Summary,
    /// Summary of the longest message chain before the first decision
    /// (asynchronous runs only; zero for window runs).
    pub chain_length: Summary,
    /// Summary of the number of resetting steps per trial.
    pub resets: Summary,
    /// Summary of messages sent per trial.
    pub messages: Summary,
}

impl Aggregate {
    /// Folds a record stream (in trial order) into the aggregate. `cap` is
    /// the scheduler's time limit: undecided trials contribute it to the
    /// decision-time summary, exactly as the pre-record implementation did.
    pub fn from_records(records: &[TrialRecord], cap: u64) -> Aggregate {
        let trials = records.len() as u64;
        let rate = |pred: &dyn Fn(&TrialRecord) -> bool| {
            if records.is_empty() {
                0.0
            } else {
                records.iter().filter(|r| pred(r)).count() as f64 / records.len() as f64
            }
        };
        Aggregate {
            trials,
            agreement_rate: rate(&|r| r.agreement),
            validity_rate: rate(&|r| r.validity),
            termination_rate: rate(&|r| r.terminated),
            violation_rate: rate(&|r| r.violations > 0),
            decision_time: Summary::from_samples(
                &records
                    .iter()
                    .map(|r| r.all_decided_at.unwrap_or(cap) as f64)
                    .collect::<Vec<_>>(),
            ),
            chain_length: Summary::from_samples(
                &records
                    .iter()
                    .map(|r| r.longest_chain as f64)
                    .collect::<Vec<_>>(),
            ),
            resets: Summary::from_samples(
                &records
                    .iter()
                    .map(|r| r.metrics.resets_consumed as f64)
                    .collect::<Vec<_>>(),
            ),
            messages: Summary::from_samples(
                &records
                    .iter()
                    .map(|r| r.metrics.messages_sent as f64)
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_adversary::SplitVoteAdversary;
    use agreement_model::Bit;
    use agreement_protocols::{BenOrBuilder, ResetTolerantBuilder};
    use agreement_sim::{FairAsyncAdversary, FullDeliveryAdversary};

    fn full_delivery(_seed: u64) -> BuiltAdversary {
        BuiltAdversary::windowed(Box::new(FullDeliveryAdversary))
    }

    fn split_vote(_seed: u64) -> BuiltAdversary {
        BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new()))
    }

    fn fair_async(_seed: u64) -> BuiltAdversary {
        BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()))
    }

    #[test]
    fn window_trials_aggregate_perfect_rates_for_unanimous_inputs() {
        let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::unanimous(7, Bit::One))
            .trials(5)
            .limits(RunLimits::small());
        let records = Campaign::default().run_records(&plan, &builder, full_delivery);
        let aggregate = Aggregate::from_records(&records, plan.limits.max_windows);
        assert_eq!(aggregate.trials, 5);
        assert_eq!(aggregate.agreement_rate, 1.0);
        assert_eq!(aggregate.validity_rate, 1.0);
        assert_eq!(aggregate.termination_rate, 1.0);
        assert_eq!(aggregate.violation_rate, 0.0);
        assert!(aggregate.decision_time.mean >= 1.0);
        assert!(aggregate.messages.mean > 0.0);
    }

    #[test]
    fn window_trials_with_split_vote_adversary_still_agree() {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(13))
            .trials(3)
            .limits(RunLimits::windows(5_000));
        let records = Campaign::default().run_records(&plan, &builder, split_vote);
        let aggregate = Aggregate::from_records(&records, plan.limits.max_windows);
        assert_eq!(aggregate.agreement_rate, 1.0);
        assert_eq!(aggregate.validity_rate, 1.0);
        assert!(aggregate.decision_time.mean > 1.0);
    }

    #[test]
    fn async_trials_aggregate_ben_or_under_fair_scheduling() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::unanimous(5, Bit::Zero))
            .trials(4)
            .limits(RunLimits::small())
            .base_seed(99);
        let records = Campaign::default().run_records(&plan, &BenOrBuilder::new(), fair_async);
        let aggregate = Aggregate::from_records(&records, plan.limits.max_steps);
        assert_eq!(aggregate.trials, 4);
        assert_eq!(aggregate.termination_rate, 1.0);
        assert_eq!(aggregate.agreement_rate, 1.0);
        assert!(aggregate.chain_length.mean >= 1.0);
        // Records carry the async metrics: steps elapsed, no windows.
        assert!(records.iter().all(|r| r.metrics.windows == 0));
        assert!(records.iter().all(|r| r.metrics.steps == r.duration));
        assert!(records.iter().all(|r| r.metrics.messages_sent > 0));
    }

    #[test]
    fn campaign_aggregates_are_identical_across_thread_counts() {
        let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(7))
            .trials(8)
            .limits(RunLimits::windows(2_000));
        let aggregate = |campaign: Campaign| {
            let records = campaign.run_records(&plan, &builder, split_vote);
            Aggregate::from_records(&records, plan.limits.max_windows)
        };
        let serial = aggregate(Campaign::serial());
        for threads in [2usize, 3, 8, 0] {
            assert_eq!(
                serial,
                aggregate(Campaign::with_threads(threads)),
                "thread count {threads} changed the aggregate"
            );
        }
    }

    #[test]
    fn trial_record_streams_are_bit_identical_across_thread_counts() {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(13))
            .trials(9)
            .limits(RunLimits::windows(2_000));
        let serial = Campaign::serial().run_records(&plan, &builder, split_vote);
        assert_eq!(serial.len(), 9);
        for (i, record) in serial.iter().enumerate() {
            assert_eq!(record.trial, i as u64, "records arrive in trial order");
            assert_eq!(record.seed, plan.base_seed + i as u64);
        }
        for threads in [2usize, 3, 8, 0] {
            let parallel = Campaign::with_threads(threads).run_records(&plan, &builder, split_vote);
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed the record stream"
            );
        }

        let async_plan = TrialPlan::new(
            SystemConfig::new(5, 1).unwrap(),
            InputAssignment::evenly_split(5),
        )
        .trials(8)
        .limits(RunLimits::small());
        let serial = Campaign::serial().run_records(&async_plan, &BenOrBuilder::new(), fair_async);
        let parallel =
            Campaign::parallel().run_records(&async_plan, &BenOrBuilder::new(), fair_async);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn trial_seeds_wrap_past_u64_max_identically_on_every_path() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(5))
            .trials(2)
            .limits(RunLimits::small())
            .base_seed(u64::MAX);
        let builder = BenOrBuilder::new();
        let serial = Campaign::serial().run_records(&plan, &builder, fair_async);
        let seeds: Vec<u64> = serial.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [u64::MAX, 0]);
        assert_eq!(
            serial,
            Campaign::with_threads(2).run_records(&plan, &builder, fair_async)
        );
        let mut sharded = Campaign::serial().run_records_range(&plan, &builder, fair_async, 0, 1);
        sharded.extend(Campaign::serial().run_records_range(&plan, &builder, fair_async, 1, 2));
        assert_eq!(serial, sharded);
    }

    #[test]
    fn range_record_shards_concatenate_to_the_full_stream() {
        use agreement_adversary::{find_adversary, AdversaryBuildCtx};
        let cfg = SystemConfig::new(5, 1).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(5))
            .trials(9)
            .limits(RunLimits::small());
        let factory = find_adversary("fair-round-robin").unwrap();
        let make = |seed: u64| factory.build(&AdversaryBuildCtx::new(cfg, seed));
        let full = Campaign::serial().run_records(&plan, &BenOrBuilder::new(), make);
        // Uneven contiguous shards, executed on different campaign shapes,
        // must concatenate to the exact single-process stream.
        let mut merged = Vec::new();
        for (lo, hi) in [(0u64, 3u64), (3, 7), (7, 9)] {
            merged.extend(Campaign::parallel().run_records_range(
                &plan,
                &BenOrBuilder::new(),
                make,
                lo,
                hi,
            ));
        }
        assert_eq!(full, merged);
        // A hi past the plan's trial count clamps instead of running
        // phantom trials.
        let tail = Campaign::serial().run_records_range(&plan, &BenOrBuilder::new(), make, 7, 100);
        assert_eq!(tail, full[7..]);
    }

    #[test]
    fn kept_workspaces_change_no_record_call_after_call() {
        let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(7))
            .trials(12)
            .limits(RunLimits::windows(2_000));
        let expected = Campaign::serial().run_records(&plan, &builder, split_vote);
        for threads in [1usize, 2, 5] {
            let campaign = Campaign::with_threads(threads);
            let mut workspaces = Vec::new();
            // Uneven ranges, so a later call finds more, fewer and as many
            // workspaces as it has workers.
            let mut records = Vec::new();
            for (lo, hi) in [(0, 1), (1, 8), (8, 10), (10, 12)] {
                records.extend(campaign.run_records_range_in(
                    &mut workspaces,
                    &plan,
                    &builder,
                    split_vote,
                    lo,
                    hi,
                ));
            }
            assert_eq!(records, expected, "{threads} threads");
            assert_eq!(workspaces.len(), threads.min(7), "one per worker used");
        }
    }

    #[test]
    fn campaign_worker_count_clamps_to_trials() {
        assert_eq!(Campaign::with_threads(16).worker_count(3), 3);
        assert_eq!(Campaign::with_threads(2).worker_count(100), 2);
        assert_eq!(Campaign::serial().worker_count(100), 1);
        assert!(Campaign::parallel().worker_count(1_000) >= 1);
        // Zero trials still yields a worker so the pool logic stays total.
        assert_eq!(Campaign::with_threads(4).worker_count(0), 1);
    }
}
