//! The paper's motivating contrast (Section 1): a committee-based protocol in
//! the style of Kapron et al. is fast against a *non-adaptive* adversary, but
//! an *adaptive* adversary simply waits for the committee to be known and
//! silences it — while quorum-based protocols shrug the same budget off.
//!
//! Run with: `cargo run --example committee_vs_adaptive`

use agreement::adversary::ScheduledCrashAdversary;
use agreement::model::{Bit, InputAssignment, SystemConfig};
use agreement::protocols::{BenOrBuilder, CommitteeBuilder};
use agreement::sim::{run_async, RunLimits};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 30;
    let t = 3;
    let cfg = SystemConfig::new(n, t)?;
    let inputs = InputAssignment::unanimous(n, Bit::One);
    let committee = CommitteeBuilder::random(&cfg, 5, 0xC0FFEE);
    println!("committee members: {:?}\n", committee.committee());

    let mut non_adaptive = ScheduledCrashAdversary::random(n, t, 99);
    let fast = run_async(
        cfg,
        inputs.clone(),
        &committee,
        &mut non_adaptive,
        1,
        RunLimits::standard(),
    );
    println!(
        "committee vs non-adaptive crash : terminated = {}, decided = {:?}, chain = {}",
        fast.all_correct_decided(),
        fast.decided_value(),
        fast.longest_chain
    );

    let mut killer = ScheduledCrashAdversary::committee_killer(committee.committee().to_vec());
    let stalled = run_async(
        cfg,
        inputs.clone(),
        &committee,
        &mut killer,
        1,
        RunLimits::standard(),
    );
    println!(
        "committee vs adaptive killer    : terminated = {}, decided = {:?}",
        stalled.all_correct_decided(),
        stalled.decided_value()
    );

    let mut killer = ScheduledCrashAdversary::committee_killer(committee.committee().to_vec());
    let robust = run_async(
        cfg,
        inputs.clone(),
        &BenOrBuilder::new(),
        &mut killer,
        1,
        RunLimits::standard(),
    );
    println!(
        "ben-or    vs adaptive killer    : terminated = {}, decided = {:?}",
        robust.all_correct_decided(),
        robust.decided_value()
    );
    Ok(())
}
