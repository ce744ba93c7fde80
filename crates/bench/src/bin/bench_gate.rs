//! CI scenario gate.
//!
//! Compares a fresh scenario report (`merged.json` from `metaai bench
//! run`) against the committed baseline and exits non-zero unless every
//! scenario's `fixed` subtree is identical (see `metaai_bench::gate` for
//! the exact rules). Nothing timed is read.
//!
//! Usage:
//!   bench_gate --baseline BENCH_scenarios.json --fresh scenario-results/merged.json

use metaai_bench::gate;

fn usage() -> ! {
    eprintln!("usage: bench_gate --baseline <path> --fresh <path>");
    std::process::exit(2);
}

fn load(path: &str) -> gate::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    gate::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut baseline_path: Option<String> = None;
    let mut fresh_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = argv.next(),
            "--fresh" => fresh_path = argv.next(),
            _ => usage(),
        }
    }
    let (Some(baseline_path), Some(fresh_path)) = (baseline_path, fresh_path) else {
        usage()
    };

    let report = gate::compare(&load(&baseline_path), &load(&fresh_path));
    for f in &report.failures {
        eprintln!("bench_gate: FAIL: {f}");
    }
    if report.passed() {
        println!(
            "bench_gate: PASS — {} scenario(s), every `fixed` subtree identical to {baseline_path}",
            report.checked
        );
    } else if report.checked == 0 {
        eprintln!("bench_gate: FAIL: neither report has any scenario to compare");
        std::process::exit(1);
    } else {
        eprintln!(
            "bench_gate: {} of {} scenario(s) differ from {baseline_path}",
            report.failures.len(),
            report.checked
        );
        std::process::exit(1);
    }
}
