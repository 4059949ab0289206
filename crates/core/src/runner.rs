//! Multi-trial campaign runner: protocol × adversary × configuration,
//! repeated over seeds, distilled into per-trial records.
//!
//! A [`TrialPlan`] describes *what* to run; a [`Campaign`] decides *how* —
//! serially or on worker threads. There is one campaign loop: workers claim
//! ranges of trials, each in its own reusable, un-instrumented
//! [`TrialWorkspace`](agreement_sim::TrialWorkspace), distill every outcome
//! into a [`TrialRecord`](crate::TrialRecord) and bring the range to the
//! calling thread (itself a worker). There the range ledger, which also
//! keeps the checkpoint, hands the records on in trial order as soon as
//! every trial before them has run: to a `Vec`, or to the report sinks and
//! the columns an [`Aggregate`] is built from. Every record stream is
//! **bit-identical** across thread counts and to fresh cores.

use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;

use agreement_analysis::Summary;
use agreement_model::{InputAssignment, ProtocolBuilder, SystemConfig};
use agreement_sim::{BuiltAdversary, RunLimits, TrialWorkspace};

use crate::orchestrate::{checkpoint::RangeLedger, OrchestrateError};
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

    /// Runs `plan.trials` executions of *any* execution model and returns one
    /// [`TrialRecord`] per trial, **in trial order** regardless of thread
    /// count. `make_adversary` receives each trial's seed and returns a
    /// [`BuiltAdversary`] (typically from an `AdversaryFactory`); the
    /// campaign never inspects the model — [`BuiltAdversary::run`] does.
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
        let (mut records, workspaces) = (Vec::new(), &mut Vec::new());
        self.extend_records(
            workspaces,
            plan,
            builder,
            make_adversary,
            (lo, hi),
            &mut records,
        );
        records
    }

    /// Appends the records of trials `lo..hi` of `plan` to `records`, run in
    /// the caller's `workspaces`: a caller of many short ranges (a worker
    /// process, the search) keeps both lists and pays for cold cores once.
    pub(crate) fn extend_records<F>(
        &self,
        workspaces: &mut Vec<TrialWorkspace>,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
        (lo, hi): (u64, u64),
        records: &mut Vec<TrialRecord>,
    ) where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        let ledger = &mut RangeLedger::span(lo, hi.min(plan.trials));
        records.reserve(usize::try_from(ledger.len()).unwrap_or(0));
        let consume = &mut |settled: &[TrialRecord]| records.extend_from_slice(settled);
        let ran = self.run_ledger(workspaces, plan, builder, make_adversary, ledger, consume);
        ran.expect("a ledger without a checkpoint has no file to fail");
    }

    /// The campaign loop: runs the trials `ledger` is missing and hands
    /// every record to `consume`, in trial order, through the ledger.
    /// Workers claim ranges of `ceil(len / (32 × workers))` trials (at most
    /// 65 536), each on its own workspace from `workspaces` (grown to the
    /// worker count, handed back warm). The calling thread is one of the
    /// workers, and every finished range reaches it: there the ledger
    /// appends the range to its checkpoint, if any, and holds it until the
    /// ranges before it are through. With one worker no thread is spawned
    /// and no range allocates.
    ///
    /// # Errors
    ///
    /// The first failed checkpoint append ends the run: no range is
    /// claimed and none settled after it.
    pub(crate) fn run_ledger<F>(
        &self,
        workspaces: &mut Vec<TrialWorkspace>,
        plan: &TrialPlan,
        builder: &dyn ProtocolBuilder,
        make_adversary: F,
        ledger: &mut RangeLedger,
        consume: &mut dyn FnMut(&[TrialRecord]),
    ) -> Result<(), OrchestrateError>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        let workers = self.worker_count(ledger.len());
        let missing = ledger.missing(ledger.len().div_ceil(32 * workers as u64));
        workspaces.resize_with(workspaces.len().max(workers), TrialWorkspace::new);
        let run_range = |workspace: &mut TrialWorkspace, lo: u64, hi: u64, records: &mut Vec<_>| {
            records.extend((lo..hi).map(|trial| {
                // An overflow check here would panic in debug builds and wrap
                // in release ones (worker processes are release binaries):
                // two streams from one command.
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
            }));
        };
        let missing = Mutex::new(missing);
        // A poisoned queue is a worker's panic, which the scope passes on.
        let claim = || missing.lock().ok()?.next();
        let (own, others) = workspaces[..workers].split_at_mut(1);
        // The calling thread is a worker too. It settles each of its own
        // ranges as it finishes and the others' ranges between its own, so
        // it sleeps only once nothing is left to claim.
        let mut records = Vec::new();
        let mut work = |settled: Option<&Receiver<(u64, u64, Vec<TrialRecord>)>>| {
            while let Some((lo, hi)) = claim() {
                run_range(&mut own[0], lo, hi, &mut records);
                ledger.settle(lo, hi, &mut records, consume)?;
                for (lo, hi, mut records) in settled.into_iter().flat_map(Receiver::try_iter) {
                    ledger.settle(lo, hi, &mut records, consume)?;
                }
            }
            for (lo, hi, mut records) in settled.into_iter().flat_map(Receiver::iter) {
                ledger.settle(lo, hi, &mut records, consume)?;
            }
            Ok::<_, OrchestrateError>(())
        };
        if others.is_empty() {
            work(None)?;
        } else {
            std::thread::scope(|scope| {
                let (finished, settled) = mpsc::channel();
                for workspace in others {
                    let (finished, claim, run_range) = (finished.clone(), &claim, &run_range);
                    scope.spawn(move || {
                        // The workspace is on its worker's stack while it
                        // runs: side by side in their list, two workers'
                        // clocks and counters would share cache lines.
                        let mut own = std::mem::take(workspace);
                        while let Some((lo, hi)) = claim() {
                            let mut records = Vec::with_capacity((hi - lo) as usize);
                            run_range(&mut own, lo, hi, &mut records);
                            if finished.send((lo, hi, records)).is_err() {
                                break;
                            }
                        }
                        *workspace = own;
                    });
                }
                drop(finished);
                // On an error `settled` drops here: each worker's next send fails.
                work(Some(&settled))
            })?;
        }
        ledger.finish(consume)
    }
}

/// Aggregated results over a batch of trials: a view of its record stream,
/// kept in this exact shape so the E1–E10 tables stay byte-identical.
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
        let mut columns = ReportColumns::new(cap, records.len() as u64);
        records.iter().for_each(|record| columns.push(record));
        columns.aggregate()
    }
}

/// What the aggregate and the report's distributions read of a record
/// stream, taken in as it passes: the counts behind the four rates, and four
/// sample columns (32 B a trial) in trial order, so that every sum, and with
/// it every float, is the one a pass over the records makes.
#[derive(Debug)]
pub(crate) struct ReportColumns {
    cap: u64,
    /// Trials where agreement, validity, termination held; with violations.
    counts: [u64; 4],
    /// Decision time (`cap` when undecided), chain length, messages sent,
    /// resets.
    pub(crate) columns: [Vec<f64>; 4],
}

impl ReportColumns {
    /// Empty columns for `trials` records under the time cap `cap`, sized up
    /// front: a column that doubled as it grew would hold up to twice its
    /// samples, and three times while it moves.
    pub(crate) fn new(cap: u64, trials: u64) -> Self {
        let columns = [(); 4].map(|_| Vec::with_capacity(trials as usize));
        ReportColumns {
            cap,
            counts: [0; 4],
            columns,
        }
    }

    /// Takes in the next record of the stream.
    pub(crate) fn push(&mut self, r: &TrialRecord) {
        let flags = [r.agreement, r.validity, r.terminated, r.violations > 0];
        for (count, flag) in self.counts.iter_mut().zip(flags) {
            *count += u64::from(flag);
        }
        let [time, chain, messages, resets] = &mut self.columns;
        time.push(r.all_decided_at.unwrap_or(self.cap) as f64);
        chain.push(r.longest_chain as f64);
        messages.push(r.metrics.messages_sent as f64);
        resets.push(r.metrics.resets_consumed as f64);
    }

    /// The aggregate of the records taken in so far.
    pub(crate) fn aggregate(&self) -> Aggregate {
        let trials = self.columns[0].len() as u64;
        let [agreement_rate, validity_rate, termination_rate, violation_rate] =
            self.counts.map(|count| match trials {
                0 => 0.0,
                _ => count as f64 / trials as f64,
            });
        let [decision_time, chain_length, messages, resets] = self
            .columns
            .each_ref()
            .map(|column| Summary::from_samples(column));
        Aggregate {
            trials,
            agreement_rate,
            validity_rate,
            termination_rate,
            violation_rate,
            decision_time,
            chain_length,
            resets,
            messages,
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
            for range in [(0, 1), (1, 8), (8, 10), (10, 12)] {
                campaign.extend_records(
                    &mut workspaces,
                    &plan,
                    &builder,
                    split_vote,
                    range,
                    &mut records,
                );
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
