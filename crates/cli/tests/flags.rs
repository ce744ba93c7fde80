//! The `metaai` binary rejects a flag its command does not read with
//! exit 2, before it touches any file.

use std::process::Command;

fn metaai(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_metaai"))
        .args(args)
        .output()
        .expect("run metaai");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_stray_flag_exits_2_before_the_model_is_loaded() {
    // The model path does not exist: had `serve` started, the error
    // would be "cannot load".
    let (code, stderr) = metaai(&[
        "serve",
        "--model",
        "no-such-model.bin",
        "--max-delay-us",
        "5",
    ]);
    assert_eq!(code, 2);
    assert_eq!(
        stderr.trim(),
        "error: unknown flag --max-delay-us for serve"
    );

    let (code, stderr) = metaai(&["serve", "--model", "no-such-model.bin"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("cannot load"), "{stderr}");
}
