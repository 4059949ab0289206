//! The measuring loop and its watchdog.
//!
//! A run is a job on its own thread: several segments of set-up, one warm-up
//! round and fixed-work measured rounds, until the run length is spent (so
//! `setup_s` is a median over set-ups spread across the run). The job writes what it has measured so far into a
//! shared [`RunLog`] and beats after every step; the supervising thread waits
//! for beats with a time limit, so a step that never returns is reported as
//! failed trials instead of hanging the run.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::workloads::Rounds;

/// How long one step (a set-up with its warm-up, a round, an isolated layer
/// drive) may take before the run is declared stalled.
pub const STEP_LIMIT: Duration = Duration::from_secs(60);

/// A run stops starting new rounds this long after measuring began, whatever
/// its minimum round count, so it ends inside the driver's 180 s.
const MEASURE_CAP: Duration = Duration::from_secs(100);

/// How a run is shaped. The same on every commit.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// How long to keep starting measured rounds.
    pub seconds: f64,
    /// How many times to set up; the measured rounds are split among them.
    pub setups: usize,
    /// Measured rounds to run even if `seconds` is already spent.
    pub min_rounds: usize,
    /// When the process started: the first set-up is timed from here.
    pub process_start: Instant,
}

/// Everything a run has measured so far.
#[derive(Debug, Default, Clone)]
pub struct RunLog {
    pub trials_per_round: u64,
    pub worker_pids: Vec<u32>,
    /// Wall seconds of each set-up, warm-up round included.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each measured round that passed verification, and the
    /// CPU seconds (this process plus workers) spent during it.
    pub round_s: Vec<f64>,
    pub round_cpu_s: Vec<f64>,
    /// Trials attempted / failed, warm-up rounds included.
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Per-layer values of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Set when a step overran [`STEP_LIMIT`].
    pub stalled: bool,
}

/// The job's handle on the shared log: every update is also a heartbeat.
pub struct Reporter {
    log: Arc<Mutex<RunLog>>,
    beat: Sender<()>,
}

impl Reporter {
    pub fn update(&self, change: impl FnOnce(&mut RunLog)) {
        change(&mut self.log.lock().expect("run log poisoned"));
        // The supervisor may already have given up on this job.
        let _ = self.beat.send(());
    }
}

fn kill_and_await(pids: &[u32]) {
    if pids.is_empty() {
        return;
    }
    let _ = Command::new("kill")
        .arg("-KILL")
        .args(pids.iter().map(u32::to_string))
        .status();
    // The stalled job still owns the child handles, so the processes stay as
    // zombies until this process exits; wait until they are at least dead.
    let deadline = Instant::now() + Duration::from_secs(5);
    let alive = |pid: &u32| {
        std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .is_ok_and(|stat| !stat.contains(") Z "))
    };
    while pids.iter().any(alive) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `job` on its own thread and waits for it, allowing `limit` between
/// heartbeats. A job that stalls is abandoned: the round it was in is counted
/// as attempted and failed, its worker processes are killed, and the log as
/// it stood is returned. `Err` when the job itself failed or panicked.
pub fn supervise(
    limit: Duration,
    job: impl FnOnce(&Reporter) -> Result<(), String> + Send + 'static,
) -> Result<RunLog, String> {
    let log = Arc::new(Mutex::new(RunLog::default()));
    let (beat, beats) = channel();
    let reporter = Reporter {
        log: Arc::clone(&log),
        beat,
    };
    let thread = std::thread::spawn(move || job(&reporter));
    loop {
        match beats.recv_timeout(limit) {
            Ok(()) => {}
            // The job dropped its reporter: it returned or panicked.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let mut log = log.lock().expect("run log poisoned");
                let lost = log.trials_per_round.max(1);
                log.attempted += lost;
                log.failed += lost;
                log.stalled = true;
                kill_and_await(&log.worker_pids);
                eprintln!("benchmark: a step exceeded {limit:?}; counted as failed, run abandoned");
                return Ok(log.clone());
            }
        }
    }
    match thread.join() {
        Ok(Ok(())) => Ok(log.lock().expect("run log poisoned").clone()),
        Ok(Err(why)) => Err(why),
        Err(_) => Err("the measuring job panicked".to_string()),
    }
}

/// Wall and CPU seconds summed over the fastest tenth of the verified rounds
/// (at least three, or all there are), and how many rounds that is.
///
/// Interference on a shared box comes in bursts that slow a round down and
/// never speed one up. Measured while sizing this benchmark on a 2-core VM:
/// undisturbed rounds within 3 % of each other, bursts of +50..70 % lasting
/// 1-3 s and covering up to half of a 15 s run, CPU time inflated along with
/// wall time; across eight runs of one seed the median round time spread
/// 15 %, the fastest quarter 6 %, the fastest tenth 4 %. The fastest tenth is
/// what the code does when left alone, and it moves with every real change
/// to a round's work. The median and tail of all rounds are printed beside
/// it, so a change that adds occasional slow rounds still shows.
pub fn fastest_rounds(log: &RunLog) -> Option<(f64, f64, usize)> {
    let mut order: Vec<usize> = (0..log.round_s.len()).collect();
    order.sort_by(|&a, &b| log.round_s[a].total_cmp(&log.round_s[b]));
    order.truncate(log.round_s.len().div_ceil(10).max(3));
    let sum = |of: &[f64]| order.iter().map(|&i| of[i]).sum::<f64>();
    (!order.is_empty()).then(|| (sum(&log.round_s), sum(&log.round_cpu_s), order.len()))
}

/// The untraced run, in `plan.setups` segments: each sets the workload up
/// from nothing, runs one warm-up round, then measures rounds for its share
/// of `plan.seconds` (and of `plan.min_rounds`).
///
/// Spreading the set-ups over the run, instead of timing them back to back,
/// makes their median steadier: a burst of interference on a shared box
/// lasts a few seconds, so it distorts one or two of the samples, not all.
pub fn measure<W: Rounds>(
    make: impl Fn() -> Result<W, String>,
    plan: &Plan,
    reporter: &Reporter,
) -> Result<(), String> {
    let segments = plan.setups.max(1);
    let rounds_each = plan.min_rounds.div_ceil(segments);
    let run_started = Instant::now();
    let mut measured_s = 0.0;
    let mut peak_mb: f64 = 0.0;
    for segment in 0..segments {
        let set_up_started = if segment == 0 {
            plan.process_start
        } else {
            Instant::now()
        };
        let mut bench = make()?;
        let pids = bench.worker_pids();
        reporter.update(|log| {
            log.trials_per_round = bench.trials_per_round();
            log.worker_pids.clone_from(&pids);
        });
        let warm_up = bench.round();
        let took = set_up_started.elapsed().as_secs_f64();
        reporter.update(|log| {
            log.setup_s.push(took);
            log.attempted += warm_up.attempted;
            log.failed += warm_up.failed;
        });

        let share_s = plan.seconds * (segment + 1) as f64 / segments as f64;
        let mut rounds = 0;
        while (rounds < rounds_each || measured_s < share_s) && run_started.elapsed() < MEASURE_CAP
        {
            let cpu_before = cpu_seconds(&pids);
            let round_started = Instant::now();
            let outcome = bench.round();
            let took = round_started.elapsed().as_secs_f64();
            let cpu = cpu_seconds(&pids) - cpu_before;
            rounds += 1;
            measured_s += took;
            reporter.update(|log| {
                log.attempted += outcome.attempted;
                log.failed += outcome.failed;
                if outcome.failed == 0 {
                    log.round_s.push(took);
                    log.round_cpu_s.push(cpu);
                }
            });
        }
        // Workers live for one segment: read their high-water marks before
        // the tear-down (the drop at the end of this iteration) reaps them.
        peak_mb = peak_mb.max(peak_rss_mb(&pids));
    }
    reporter.update(|log| log.peak_rss_mb = peak_mb);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RoundOutcome;

    /// A stand-in workload: ten trials a round, rounds that take as long as
    /// the script says, one of them failing verification.
    struct Scripted {
        round: usize,
        sleeps_ms: Vec<u64>,
        failing_round: Option<usize>,
    }

    impl Rounds for Scripted {
        fn trials_per_round(&self) -> u64 {
            10
        }

        fn worker_pids(&self) -> Vec<u32> {
            Vec::new()
        }

        fn round(&mut self) -> RoundOutcome {
            let ms = self.sleeps_ms.get(self.round).copied().unwrap_or(1);
            std::thread::sleep(Duration::from_millis(ms));
            let failed = if self.failing_round == Some(self.round) {
                10
            } else {
                0
            };
            self.round += 1;
            RoundOutcome {
                attempted: 10,
                failed,
            }
        }
    }

    fn plan(seconds: f64, setups: usize, min_rounds: usize) -> Plan {
        Plan {
            seconds,
            setups,
            min_rounds,
            process_start: Instant::now(),
        }
    }

    #[test]
    fn an_over_long_round_is_reported_as_failed_not_hung() {
        let started = Instant::now();
        let log = supervise(Duration::from_millis(150), move |reporter| {
            measure(
                || {
                    Ok(Scripted {
                        round: 0,
                        // Warm-up and two rounds are quick; the third wedges.
                        sleeps_ms: vec![1, 1, 1, 5_000],
                        failing_round: None,
                    })
                },
                &plan(60.0, 1, 5),
                reporter,
            )
        })
        .expect("a stall is a result, not an error");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "the watchdog must not wait the round out"
        );
        assert!(log.stalled);
        // Warm-up + two good rounds + the wedged one.
        assert_eq!((log.attempted, log.failed), (40, 10));
        assert_eq!(log.round_s.len(), 2);
    }

    #[test]
    fn workers_of_a_stalled_run_are_killed() {
        let mut child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("sleep exists");
        let started = Instant::now();
        kill_and_await(&[child.id()]);
        assert!(started.elapsed() < Duration::from_secs(4));
        let status = child.wait().expect("the child can be reaped");
        assert!(!status.success(), "sleep was killed, it did not finish");
    }

    #[test]
    fn a_round_failing_verification_counts_but_is_not_timed() {
        let log = supervise(STEP_LIMIT, move |reporter| {
            measure(
                || {
                    Ok(Scripted {
                        round: 0,
                        sleeps_ms: Vec::new(),
                        failing_round: Some(2),
                    })
                },
                &plan(0.0, 3, 4),
                reporter,
            )
        })
        .unwrap();
        assert!(!log.stalled);
        assert_eq!(log.setup_s.len(), 3, "one sample per set-up");
        // Each of the three segments restarts the script: a warm-up (round 0)
        // and two measured rounds, the second of which (round 2) fails.
        assert_eq!((log.attempted, log.failed), (90, 30));
        assert_eq!((log.round_s.len(), log.round_cpu_s.len()), (3, 3));
    }

    #[test]
    fn the_fastest_rounds_ignore_disturbed_ones() {
        let mut log = RunLog {
            round_s: vec![0.30, 0.19, 0.18, 0.31, 0.20, 0.32, 0.21, 0.29],
            round_cpu_s: vec![0.3, 0.2, 0.1, 0.3, 0.2, 0.3, 0.2, 0.3],
            ..RunLog::default()
        };
        // Eight rounds: a tenth rounds up to one, the floor of three applies.
        let (wall, cpu, rounds) = fastest_rounds(&log).unwrap();
        assert_eq!(rounds, 3);
        assert!((wall - 0.57).abs() < 1e-12 && (cpu - 0.5).abs() < 1e-12);
        // Forty rounds: the fastest four.
        log.round_s = (0..40).map(|i| 1.0 + f64::from(i)).collect();
        log.round_cpu_s = vec![1.0; 40];
        assert_eq!(fastest_rounds(&log), Some((10.0, 4.0, 4)));
        log.round_s.truncate(2);
        assert_eq!(fastest_rounds(&log).unwrap().2, 2);
        assert_eq!(fastest_rounds(&RunLog::default()), None);
    }

    #[test]
    fn a_failing_set_up_is_an_error() {
        let outcome = supervise(STEP_LIMIT, move |reporter| {
            measure(
                || Err::<Scripted, String>("no such scenario".to_string()),
                &plan(0.0, 1, 1),
                reporter,
            )
        });
        assert_eq!(outcome.unwrap_err(), "no such scenario");
    }
}
