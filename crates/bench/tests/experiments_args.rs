//! The `experiments` binary rejects a bad `--scale` or `--seed` value
//! with exit 2 before running anything, rather than falling back to a
//! default.

use std::process::Command;

fn experiments(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
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
