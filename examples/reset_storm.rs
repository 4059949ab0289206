//! A "reset storm": every acceptable window the adversary erases the memory of
//! the t most advanced processors, so over a long run far more than t total
//! failures occur — and the reset-tolerant protocol still agrees, exactly the
//! resilience the paper's Section 3 establishes.
//!
//! Run with: `cargo run --example reset_storm`

use agreement::adversary::{SplitVoteAdversary, TargetedResetAdversary};
use agreement::model::{Bit, InputAssignment, SystemConfig};
use agreement::protocols::ResetTolerantBuilder;
use agreement::sim::{run_windowed, RunLimits};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::with_sixth_resilience(19)?;
    let builder = ResetTolerantBuilder::recommended(&cfg)?;

    for (label, inputs) in [
        (
            "unanimous 0",
            InputAssignment::unanimous(cfg.n(), Bit::Zero),
        ),
        ("evenly split", InputAssignment::evenly_split(cfg.n())),
    ] {
        // Targeted resets, then the harsher split-vote + resets combination.
        let targeted = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut TargetedResetAdversary::new(),
            7,
            RunLimits::windows(100_000),
        );
        let balancing = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::with_resets(),
            7,
            RunLimits::windows(100_000),
        );
        println!("inputs: {label}");
        println!(
            "  targeted resets  : decided {:?} after {:?} windows, {} total resets",
            targeted.decided_value(),
            targeted.all_decided_at,
            targeted.metrics.resets_consumed
        );
        println!(
            "  split-vote+resets: decided {:?} after {:?} windows, {} total resets",
            balancing.decided_value(),
            balancing.all_decided_at,
            balancing.metrics.resets_consumed
        );
        assert!(targeted.is_correct(&inputs));
        assert!(balancing.is_correct(&inputs));
    }
    Ok(())
}
