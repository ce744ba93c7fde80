//! `metaai` — train, deploy, and run over-the-air classifiers.
//!
//! ```text
//! metaai train  --dataset mnist --scale default --epochs 25 --out model.bin
//! metaai eval   --model model.bin --dataset mnist [--confusion]
//! metaai deploy --model model.bin
//! metaai infer  --model model.bin --dataset mnist --sample 0 [--trace t.csv]
//! metaai serve  --model model.bin --port 7077 [--workers 2 --max-batch 64]
//! metaai scan   [--angle 25]
//! metaai export --dataset mnist --scale quick --out sheet.pgm
//! metaai wdd    [--atoms 16,64,256]
//! metaai bench  run --recipes recipes/quick --out-dir scenario-results
//! ```
//!
//! Every command is deterministic in `--seed` (default 42).

mod args;
mod commands;

use args::Args;

fn main() {
    let args = Args::from_env();
    let code = match args.command.as_deref() {
        Some("train") => commands::train(&args),
        Some("eval") => commands::eval(&args),
        Some("deploy") => commands::deploy(&args),
        Some("infer") => commands::infer(&args),
        Some("serve") => commands::serve(&args),
        Some("scan") => commands::scan(&args),
        Some("export") => commands::export(&args),
        Some("wdd") => commands::wdd(&args),
        Some("bench") => commands::bench(&args),
        Some("help") | None => {
            print_help();
            0
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n");
            print_help();
            2
        }
    };
    std::process::exit(code);
}

fn print_help() {
    println!(
        "metaai — over-the-air neural networks via programmable metasurfaces

USAGE:
  metaai <COMMAND> [OPTIONS]

COMMANDS:
  train    Train a complex linear classifier on a synthetic dataset
           (--layers L ≥ 2 trains product-parameterized factors for an
           L-layer stacked metasurface cascade)
  eval     Evaluate a saved model digitally and over the air
  deploy   Solve the metasurface schedule for a saved model and report
           realization quality and control-budget numbers
  infer    Run one traced over-the-air inference
  serve    Serve over-the-air inference on a TCP port (micro-batched;
           --port 7077 --workers N --max-batch 64
           --queue-cap 1024 --policy shed|block; drain with loadgen
           --shutdown; --adapt MPS attaches the online-adaptation loop,
           tuned by --adapt-probes DATASET --adapt-interval-ms N
           --adapt-threshold F --adapt-residual F --adapt-hysteresis N
           --adapt-cooldown N)
  scan     Beam-scan demo: estimate the receiver angle
  export   Dump a dataset contact sheet as a PGM image
  wdd      Weight-distribution-density sweep (Appendix A.2)
  bench    Run declarative benchmark scenarios from recipe files
           (bench run --recipes DIR | --recipe FILE [--out-dir DIR]
           [--pr N]; bench list shows the scenario registry)
  help     Show this message

COMMON OPTIONS:
  --dataset <mnist|fashion|fruits|afhq|celeba|widar>   (default mnist)
  --scale   <quick|default|paper>                      (default default)
  --seed    <N>                                        (default 42)
  --metrics-out    <path>        write a telemetry snapshot after the run
                                 (train/eval/infer)
  --metrics-format <json|prom>   snapshot format       (default json)

See README.md for the full workflow."
    );
}
