//! Usage errors of the `search` binary: a value-taking flag followed by
//! another flag is refused (exit status 2, the flag named on stderr) before
//! any trial runs — the contract `agreement_core::cli` gives every binary.

use std::process::Command;

/// `--out --baselines` used to take `--baselines` as the output directory:
/// the search ran, wrote `--baselines/corpus.json`, skipped the baseline
/// table and exited 0.
#[test]
fn a_flag_in_place_of_the_out_directory_is_a_usage_error() {
    let scratch = std::env::temp_dir().join(format!("search-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_search"))
        .current_dir(&scratch)
        .args(["--scenario", "e1/reset-tolerant/split-vote/split/n7t1"])
        .args(["--budget-trials", "64", "--out", "--baselines"])
        .output()
        .expect("search binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let left_behind: Vec<_> = std::fs::read_dir(&scratch)
        .expect("scratch directory is readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&scratch).expect("scratch directory is removable");

    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--out"), "stderr names the flag: {stderr}");
    assert!(
        left_behind.is_empty(),
        "nothing is written: {left_behind:?}"
    );
}
