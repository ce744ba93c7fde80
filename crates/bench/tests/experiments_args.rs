//! The `experiments` binary rejects a bad `--scale` or `--seed` value,
//! an unknown flag and an unknown experiment name with exit 2 before
//! running anything, rather than falling back to a default or skipping
//! the name.

use std::process::Command;

/// Exit code and stderr of one run; asserts it printed nothing to stdout,
/// i.e. ran no experiment.
fn experiments(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
    assert!(out.stdout.is_empty(), "{args:?} started a run");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_unknown_scale_exits_2() {
    let (code, stderr) = experiments(&["fig6", "--scale", "bogus"]);
    assert_eq!(code, 2);
    assert_eq!(
        stderr.trim(),
        "error: unknown scale \"bogus\" (expected quick|default|paper)"
    );
}

#[test]
fn a_malformed_seed_exits_2() {
    let (code, stderr) = experiments(&["fig6", "--seed", "x1"]);
    assert_eq!(code, 2);
    assert_eq!(stderr.trim(), "error: --seed expects a number, got \"x1\"");
    let (code, _) = experiments(&["fig6", "--seed"]);
    assert_eq!(code, 2);
}

#[test]
fn an_unknown_flag_or_experiment_exits_2_before_running() {
    let (code, stderr) = experiments(&["--sede", "3"]);
    assert_eq!(code, 2);
    assert_eq!(stderr.trim(), "error: unknown flag --sede");
    // A valid name ahead of the bad one does not run either.
    let (code, stderr) = experiments(&["fig6", "fig99", "--scale", "quick"]);
    assert_eq!(code, 2);
    assert!(
        stderr.starts_with("error: unknown experiment \"fig99\" (expected table1|"),
        "{stderr}"
    );
}
