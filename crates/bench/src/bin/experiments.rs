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
//! as CSVs under `--out` (default `results/`).

use metaai_bench::common::{csv_write, pct, ExpContext};
use metaai_bench::exp_robustness;
use metaai_bench::{
    exp_ablation, exp_energy, exp_microbench, exp_mobility, exp_overall, exp_parallel, exp_privacy,
    exp_sensors,
};
use metaai_datasets::{DatasetId, Scale};

/// Parses the command line; a bad `--scale` or `--seed` value is an
/// error, not a silent default.
fn parse_args() -> Result<(Vec<String>, ExpContext), String> {
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
                out_dir = args.get(i).cloned().unwrap_or_else(|| "results".into());
            }
            exp => experiments.push(exp.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("all".into());
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

    for exp in &experiments {
        let started = std::time::Instant::now();
        match exp.as_str() {
            "table1" => {
                let rows = exp_overall::run(&ctx, &DatasetId::all());
                exp_overall::report(&ctx, &rows);
            }
            "table2" | "table3" | "energy" => exp_energy::report_all(&ctx.out_dir),
            "fig6" => {
                let f = exp_microbench::fig6(&ctx, &[16, 32, 64, 128, 256, 512]);
                println!("\nFig 6: weight-approximation error vs atoms");
                for (m, e) in &f {
                    println!("  M={m:<5} {e:.5}");
                }
                csv_write(
                    &ctx.out_dir,
                    "fig6",
                    "atoms,mean_relative_residual",
                    &f.iter()
                        .map(|(m, e)| format!("{m},{e:.6}"))
                        .collect::<Vec<_>>(),
                );
            }
            "fig7" => {
                let f = exp_microbench::fig7(
                    &ctx,
                    &[DatasetId::Mnist, DatasetId::Afhq],
                    &[16, 64, 128, 256, 512],
                );
                println!("\nFig 7: accuracy vs atom count");
                let mut rows = Vec::new();
                for (id, series) in &f {
                    print!("  {:<12}", id.name());
                    for (m, acc) in series {
                        print!(" M{m}={}", pct(*acc));
                        rows.push(format!("{},{},{}", id.name(), m, pct(*acc)));
                    }
                    println!();
                }
                csv_write(&ctx.out_dir, "fig7", "dataset,atoms,accuracy", &rows);
            }
            "fig12" | "fig13" | "fig16" | "fig17" | "fig29" | "fig30" | "micro" => {
                exp_microbench::report_all(&ctx)
            }
            "fig18" | "fig31" | "parallel" => exp_parallel::report_all(&ctx),
            "fig19" | "fig21" | "fig22" | "fig23" | "fig24" | "fig25" | "fig26" | "fig27"
            | "robustness" => exp_robustness::report_all(&ctx),
            "fig20" | "fig28" | "sensors" => exp_sensors::report_all(&ctx),
            "ablations" => exp_ablation::report_all(&ctx),
            "privacy" => exp_privacy::report_all(&ctx),
            "mobility" => exp_mobility::report_all(&ctx),
            "all" => {
                let rows = exp_overall::run(&ctx, &DatasetId::all());
                exp_overall::report(&ctx, &rows);
                exp_microbench::report_all(&ctx);
                exp_robustness::report_all(&ctx);
                exp_parallel::report_all(&ctx);
                exp_sensors::report_all(&ctx);
                exp_energy::report_all(&ctx.out_dir);
                exp_ablation::report_all(&ctx);
                exp_privacy::report_all(&ctx);
                exp_mobility::report_all(&ctx);
            }
            other => eprintln!("unknown experiment: {other}"),
        }
        eprintln!("[{exp}: {:.1?}]", started.elapsed());
    }
    eprintln!("total: {:.1?}", t0.elapsed());
}
