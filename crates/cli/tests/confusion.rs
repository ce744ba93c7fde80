//! `metaai eval --confusion` builds its matrix from the very predictions
//! the printed over-the-air accuracy counts: the diagonal over the test
//! size is that accuracy.

use std::process::Command;

fn metaai(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_metaai"))
        .args(args)
        .output()
        .expect("run metaai");
    assert!(
        out.status.success(),
        "metaai {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn the_confusion_diagonal_is_the_printed_accuracy() {
    let dir = std::env::temp_dir().join(format!("metaai-cli-confusion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let model = dir.join("model.bin");
    let model = model.to_str().expect("utf8");
    let data = ["--dataset", "afhq", "--scale", "quick", "--seed", "42"];

    metaai(&[&["train", "--epochs", "8", "--out", model][..], &data].concat());
    let out = metaai(&[&["eval", "--model", model, "--confusion"][..], &data].concat());
    let _ = std::fs::remove_dir_all(&dir);

    let printed = out
        .lines()
        .find_map(|l| l.strip_prefix("over-the-air (prototype) accuracy: "))
        .and_then(|rest| rest.strip_suffix(" %"))
        .unwrap_or_else(|| panic!("no accuracy line in:\n{out}"));
    // Matrix rows follow the `truth\pred` header: the true class, then
    // one count per predicted class.
    let rows: Vec<Vec<usize>> = out
        .lines()
        .skip_while(|l| !l.starts_with("truth\\pred"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .map(|v| v.parse().expect("count"))
                .collect()
        })
        .collect();
    assert_eq!(rows.len(), 3, "AFHQ has three classes:\n{out}");
    let total: usize = rows.iter().map(|r| r[1..].iter().sum::<usize>()).sum();
    let diagonal: usize = rows.iter().map(|r| r[1 + r[0]]).sum();
    assert_eq!(total, 120, "quick AFHQ tests 120 samples");
    assert_eq!(
        format!("{:.2}", 100.0 * diagonal as f64 / total as f64),
        printed,
        "confusion diagonal {diagonal}/{total} vs printed accuracy:\n{out}"
    );
}
