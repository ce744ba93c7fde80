//! Benchmark of the MetaAI workspace, driven from outside the program
//! through the public APIs of its layers. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <serve-dense|serve-sparse|lifecycle> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --steadiness <runs> [--seconds <n>] [--first-seed <n>]
//! ```
//!
//! A run prints one `metric <name> <value> <unit> n=<samples>` line per
//! metric and then, as the last line of stdout, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! an output check failed. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the per-layer ones, and the spans
//! are written to a file named on stderr.

mod layers;
mod lifecycle;
mod loadgen;
mod models;
mod report;
mod serve;
mod steady;
mod trace;

use report::Report;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["serve-dense", "serve-sparse", "lifecycle"];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("success_share", "share"),
    ("cpu_us_per_req", "us"),
    ("train_samples_per_s", "1/s"),
    ("deploy_s", "s"),
    ("stack_deploy_s", "s"),
    ("eval_samples_per_s", "1/s"),
    ("ota_accuracy", "share"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("datasets.generate_ms", "ms"),
    ("nn.train_epoch_ms", "ms"),
    ("core.mapper.map_ms", "ms"),
    ("core.mapper.remap_ms", "ms"),
    ("mts.solver.sweeps", "count"),
    ("core.ota.realize_ms", "ms"),
    ("sim.stack_solve_ms", "ms"),
    ("sim.realize_stack_ms", "ms"),
    ("rf.environment_us", "us"),
    ("core.conditions_us", "us"),
    ("core.engine.kernel_fused_us", "us"),
    ("core.engine.kernel_scalar_us", "us"),
    ("core.score_us", "us"),
    ("core.eval_ms", "ms"),
    ("adapt.probe_ms", "ms"),
    ("adapt.resolve_ms", "ms"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.inproc_p50_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_p90", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.swap_us", "us"),
    ("loadgen.lag_p90_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.cpu_overhead_share", "share"),
];

/// One run's command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         perfbench --steadiness <runs> [--seconds <n>] [--first-seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn number(flag: &str, value: Option<&String>) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut steadiness, mut first_seed) = (None, 1);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = Some(number(flag, it.next())),
            "--seconds" => seconds = Some(number(flag, it.next())),
            "--trace" => trace = Some(number(flag, it.next())),
            "--steadiness" => steadiness = Some(number(flag, it.next())),
            "--first-seed" => first_seed = number(flag, it.next()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(runs) = steadiness {
        steady::run(runs, seconds.unwrap_or(10), first_seed);
        return;
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .unwrap_or_else(|| usage("--seconds is required"))
            .max(1),
        trace: match trace {
            Some(0) | None => false,
            Some(1) => true,
            Some(_) => usage("--trace is 0 or 1"),
        },
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    let report = run(&args);
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// Runs one workload and returns its report, holding exactly the metrics
/// of the run's kind (end-to-end or per-layer).
fn run(args: &Args) -> Report {
    let t0 = Instant::now();
    let steal0 = report::steal_s();
    let tracer = Tracer::new(false);
    if args.trace {
        metaai::telemetry::install();
        metaai_serve::register_metrics();
    }
    tracer.set_on(args.trace);
    let mut raw = Report::default();
    match args.workload.as_str() {
        "serve-dense" => serve::run(&serve::DENSE, args, &tracer, &mut raw),
        "serve-sparse" => serve::run(&serve::SPARSE, args, &tracer, &mut raw),
        _ => lifecycle::run(args, &tracer, &mut raw),
    }
    let wall = t0.elapsed().as_secs_f64();
    let steal = report::steal_s() - steal0;
    eprintln!(
        "{} run took {wall:.1} s; the hypervisor stole {:.1}% of the vCPUs' time",
        args.workload,
        100.0 * steal / (wall * report::cpus())
    );
    if args.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path, t0) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        for (name, t) in tracer.self_times() {
            eprintln!(
                "self time {name:<28} {:>6} spans {:>10.3} ms of {:>10.3} ms",
                t.spans,
                t.self_time.as_secs_f64() * 1e3,
                t.total.as_secs_f64() * 1e3
            );
        }
    }
    select(raw, if args.trace { &PER_LAYER } else { &END_TO_END })
}

/// Keeps the first reading of each expected metric, in contract order;
/// a missing or non-finite one fails the run.
fn select(raw: Report, expected: &[(&str, &str)]) -> Report {
    let mut report = Report {
        attempted: raw.attempted.max(1),
        failed: raw.failed,
        problems: raw.problems,
        ..Report::default()
    };
    for &(name, unit) in expected {
        match raw.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && m.unit == unit => report.metrics.push(m.clone()),
            Some(m) => report.problem(format!("metric {name} read {} {}", m.value, m.unit)),
            None => report.problem(format!("metric {name} was not measured")),
        }
    }
    report.correct = report.problems.is_empty();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must name the same metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn select_keeps_expected_metrics_and_flags_missing_ones() {
        let mut raw = Report::default();
        raw.push("setup_s", 1.5, "s", 3);
        raw.push("setup_s", 9.0, "s", 1);
        raw.push("extra", 1.0, "s", 1);
        let r = select(raw, &[("setup_s", "s")]);
        assert!(r.correct);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.metrics[0].value, 1.5);
        let r = select(Report::default(), &[("setup_s", "s")]);
        assert!(!r.correct);
    }
}
