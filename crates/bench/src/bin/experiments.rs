//! MetaAI experiment runner — regenerates every table and figure of the
//! paper.
//!
//! ```text
//! experiments [EXPERIMENT ...] [--scale quick|default|paper] [--seed N] [--out DIR]
//! ```
//!
//! `EXPERIMENT` ∈ {table1, table2, table3, fig6, fig7, fig12, fig13,
//! fig16, fig17, fig18, fig19, fig20, fig21, fig22, fig23, fig24, fig25,
//! fig26, fig27, fig28, fig29, fig30, fig31, micro, robustness,
//! ablations, privacy, mobility, all}.
//! With no experiment, runs `all`. Results print to stdout and are written
//! as CSVs under `--out` (default `results/`). An unknown flag or
//! experiment name exits 2 with `error: …` before anything runs.

use metaai_bench::common::ExpContext;
use metaai_bench::exp_robustness;
use metaai_bench::{
    exp_ablation, exp_energy, exp_microbench, exp_mobility, exp_overall, exp_parallel, exp_privacy,
    exp_sensors,
};
use metaai_datasets::{DatasetId, Scale};

/// What one experiment name runs.
type Run = fn(&ExpContext);

/// Every experiment name the runner accepts (space-separated), grouped
/// by what it runs.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", table1),
    ("table2 table3 energy", |ctx| {
        exp_energy::report_all(&ctx.out_dir)
    }),
    ("fig6", exp_microbench::report_fig6),
    ("fig7", exp_microbench::report_fig7),
    (
        "fig12 fig13 fig16 fig17 fig29 fig30 micro",
        exp_microbench::report_all,
    ),
    ("fig18 fig31 parallel", exp_parallel::report_all),
    (
        "fig19 fig21 fig22 fig23 fig24 fig25 fig26 fig27 robustness",
        exp_robustness::report_all,
    ),
    ("fig20 fig28 sensors", exp_sensors::report_all),
    ("ablations", exp_ablation::report_all),
    ("privacy", exp_privacy::report_all),
    ("mobility", exp_mobility::report_all),
    ("all", all),
];

fn table1(ctx: &ExpContext) {
    let rows = exp_overall::run(ctx, &DatasetId::all());
    exp_overall::report(ctx, &rows);
}

fn all(ctx: &ExpContext) {
    table1(ctx);
    exp_microbench::report_all(ctx);
    exp_robustness::report_all(ctx);
    exp_parallel::report_all(ctx);
    exp_sensors::report_all(ctx);
    exp_energy::report_all(&ctx.out_dir);
    exp_ablation::report_all(ctx);
    exp_privacy::report_all(ctx);
    exp_mobility::report_all(ctx);
}

/// The experiment named `name`, or an error listing every accepted name.
fn lookup(name: &str) -> Result<Run, String> {
    EXPERIMENTS
        .iter()
        .find(|(names, _)| names.split(' ').any(|n| n == name))
        .map(|&(_, run)| run)
        .ok_or_else(|| {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|&(names, _)| names).collect();
            format!(
                "unknown experiment {name:?} (expected {})",
                known.join(" ").replace(' ', "|")
            )
        })
}

/// Parses the command line. A bad `--scale`, `--seed` or `--out` value,
/// an unknown flag and an unknown experiment name are errors, found
/// before anything runs.
fn parse_args() -> Result<(Vec<(String, Run)>, ExpContext), String> {
    let mut scale = Scale::Default;
    let mut seed = 42u64;
    let mut out_dir = "results".to_string();
    let mut experiments = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map_or("", String::as_str))?;
            }
            "--quick" => scale = Scale::Quick,
            "--paper" => scale = Scale::Paper,
            "--seed" => {
                i += 1;
                let value = args.get(i).map_or("", String::as_str);
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects a number, got {value:?}"))?;
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().ok_or("--out expects a directory")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            exp => experiments.push((exp.to_string(), lookup(exp)?)),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push(("all".to_string(), all as Run));
    }
    Ok((
        experiments,
        ExpContext {
            scale,
            seed,
            out_dir,
        },
    ))
}

fn main() {
    let (experiments, ctx) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let t0 = std::time::Instant::now();
    println!(
        "MetaAI experiments — scale {:?}, seed {}, output {}/",
        ctx.scale, ctx.seed, ctx.out_dir
    );

    for (exp, run) in &experiments {
        let started = std::time::Instant::now();
        run(&ctx);
        eprintln!("[{exp}: {:.1?}]", started.elapsed());
    }
    eprintln!("total: {:.1?}", t0.elapsed());
}
