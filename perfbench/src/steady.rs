//! The steadiness report: repeats every workload `runs` times, each run
//! a fresh process with its own seed, and prints per metric the median,
//! the quartiles, the spread between them as a share of the median, and
//! the max/min ratio. Workloads are interleaved run by run, so drift in
//! host speed hits all of them alike.

use crate::report::{median, quartiles};
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

pub fn run(runs: u64, seconds: u64, first_seed: u64) {
    let exe = std::env::current_exe().expect("path of this executable");
    // (workload, metric) → (unit, values)
    let mut table: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut failures = 0;
    for r in 0..runs {
        let seed = first_seed + r;
        for w in WORKLOADS {
            let started = Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let correct = stdout
                .lines()
                .last()
                .is_some_and(|l| l.contains("\"correct\": true"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let summary = stderr
                .lines()
                .find(|l| l.contains(" run took "))
                .unwrap_or("");
            eprintln!(
                "run {} seed {seed} {w}: {:.1} s, {} ({summary})",
                r + 1,
                started.elapsed().as_secs_f64(),
                if out.status.success() && correct {
                    "correct"
                } else {
                    "FAILED"
                }
            );
            if !out.status.success() || !correct {
                failures += 1;
                eprintln!("{stderr}");
                continue;
            }
            for line in stdout.lines().filter_map(|l| l.strip_prefix("metric ")) {
                let f: Vec<&str> = line.split_whitespace().collect();
                let (Some(name), Some(value), Some(unit)) = (f.first(), f.get(1), f.get(2)) else {
                    continue;
                };
                let Ok(value) = value.parse::<f64>() else {
                    continue;
                };
                table
                    .entry((w.to_string(), name.to_string()))
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{:<14} {:<22} {:>6} {:>14} {:>14} {:>14} {:>9} {:>8} {:>3}  [per run]",
        "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min", "n"
    );
    for ((w, name), (unit, values)) in &table {
        let [q1, _, q3] = quartiles(values);
        let med = median(values);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{w:<14} {name:<22} {unit:>6} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {:>8.4} {:>3}  [{}]",
            (q3 - q1) / med,
            max / min,
            values.len(),
            runs.join(" ")
        );
    }
    if failures > 0 {
        println!("{failures} runs failed");
        std::process::exit(1);
    }
}
