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
//! Every command is deterministic in `--seed` (default 42). A flag the
//! command does not read is an error (exit 2), checked before anything
//! runs.

mod args;
mod commands;

use args::Args;

/// The flags each command reads, space-separated. Any other `--flag` is
/// rejected before dispatch, so a misspelt or retired flag cannot be
/// silently ignored.
const FLAGS: &[(&str, &str)] = &[
    (
        "train",
        "dataset scale seed epochs layers out metrics-out metrics-format",
    ),
    (
        "eval",
        "dataset scale seed model confusion metrics-out metrics-format",
    ),
    ("deploy", "dataset scale seed model"),
    (
        "infer",
        "dataset scale seed model sample trace metrics-out metrics-format",
    ),
    (
        "serve",
        "model seed port workers max-batch queue-cap policy metrics-out metrics-format \
         adapt adapt-probes adapt-interval-ms adapt-threshold adapt-residual \
         adapt-hysteresis adapt-cooldown",
    ),
    ("scan", "angle"),
    ("export", "dataset scale seed per-class out"),
    ("wdd", "atoms seed"),
    ("bench", "recipe recipes out-dir"),
    ("help", "help"),
];

/// Rejects any flag `args`'s command does not read. An unknown command
/// passes here; dispatch reports it.
fn check_flags(args: &Args) -> Result<(), String> {
    let command = args.command.as_deref().unwrap_or("help");
    let Some((_, accepted)) = FLAGS.iter().find(|(c, _)| *c == command) else {
        return Ok(());
    };
    match args
        .repeated
        .iter()
        .find(|(k, _)| !accepted.split_whitespace().any(|f| f == k))
    {
        Some((key, _)) => Err(format!("unknown flag --{key} for {command}")),
        None => Ok(()),
    }
}

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
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
            println!("{HELP}");
            0
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n");
            println!("{HELP}");
            2
        }
    };
    std::process::exit(code);
}

/// `metaai help`. Each command's entry lists every flag it takes; the
/// option groups below name the commands they apply to.
const HELP: &str = "metaai — over-the-air neural networks via programmable metasurfaces

USAGE:
  metaai <COMMAND> [OPTIONS]

COMMANDS:
  train    Train a complex linear classifier on a synthetic dataset
           (--epochs N --out FILE; --layers L ≥ 2 trains
           product-parameterized factors for an L-layer stacked
           metasurface cascade)
  eval     Evaluate a saved model digitally and over the air
           (--model FILE [--confusion])
  deploy   Solve the metasurface schedule for a saved model and report
           realization quality and control-budget numbers (--model FILE)
  infer    Run one traced over-the-air inference
           (--model FILE --sample N [--trace FILE.csv])
  serve    Serve over-the-air inference on a TCP port (--model FILE or
           --model NAME=FILE, repeatable; --port 7077 --workers N
           --max-batch 64 --queue-cap 1024 --policy shed|block --seed N;
           drain by sending a SHUTDOWN frame, e.g. from loadgen;
           --adapt MPS attaches the online-adaptation loop,
           tuned by --adapt-probes DATASET --adapt-interval-ms N
           --adapt-threshold F --adapt-residual F --adapt-hysteresis N
           --adapt-cooldown N)
  scan     Beam-scan demo: estimate the receiver angle (--angle DEG)
  export   Dump a dataset contact sheet as a PGM image
           (--per-class N --out FILE.pgm)
  wdd      Weight-distribution-density sweep (Appendix A.2)
           (--atoms 16,32,64 --seed N)
  bench    Run declarative benchmark scenarios from recipe files
           (bench run --recipes DIR | --recipe FILE [--out-dir DIR];
           bench list shows the scenario registry)
  help     Show this message

DATA OPTIONS (train, eval, deploy, infer, export):
  --dataset <mnist|fashion|fruits|afhq|celeba|widar>   (default mnist)
  --scale   <quick|default|paper>                      (default default)
  --seed    <N>                                        (default 42)

TELEMETRY OPTIONS (train, eval, infer, serve):
  --metrics-out    <path>        write a telemetry snapshot after the run
  --metrics-format <json|prom>   snapshot format       (default json)

Any other flag is an error. See README.md for the full workflow.";

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> Result<(), String> {
        check_flags(&Args::parse(line.split_whitespace().map(String::from)))
    }

    fn accepts(command: &str, flag: &str) -> bool {
        check(&format!("{command} --{flag} x")).is_ok()
    }

    /// The `--flag` tokens of one text span (surrounding punctuation and
    /// `=value` stripped).
    fn flags_in(text: &str) -> Vec<String> {
        text.split_whitespace()
            .filter_map(|t| {
                t.trim_start_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                    .strip_prefix("--")
            })
            .map(|t| {
                t.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .filter(|t| !t.is_empty())
            .collect()
    }

    #[test]
    fn the_removed_max_delay_flag_is_rejected() {
        assert_eq!(
            check("serve --model m.bin --max-delay-us 5"),
            Err("unknown flag --max-delay-us for serve".to_string())
        );
    }

    #[test]
    fn a_misspelt_flag_is_rejected() {
        assert_eq!(
            check("train --dataset afhq --epoch 3"),
            Err("unknown flag --epoch for train".to_string())
        );
        // A flag valid for one command is still foreign to another.
        assert!(check("scan --seed 3").is_err());
        // Retired `bench run` flags.
        assert!(check("bench run --recipes r --pr 10").is_err());
        assert!(check("bench run --recipes r --merge-into b.json").is_err());
    }

    #[test]
    fn unknown_commands_are_left_to_dispatch() {
        assert!(check("frobnicate --anything 1").is_ok());
        assert!(check("--help").is_ok());
    }

    #[test]
    fn every_flag_the_help_documents_is_accepted() {
        let commands = HELP
            .split("\nCOMMANDS:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("COMMANDS section");
        let mut current = "";
        let mut checked = 0;
        for line in commands.lines() {
            // A command entry starts at two spaces of indent; its
            // continuation lines are indented further.
            if !line.starts_with("   ") {
                current = line.split_whitespace().next().expect("command name");
            }
            for flag in flags_in(line) {
                assert!(accepts(current, &flag), "help: {current} --{flag}");
                checked += 1;
            }
        }
        for group in HELP.split("\n\n").filter(|g| g.contains(" OPTIONS (")) {
            let (heading, body) = group.split_once('\n').expect("option group");
            let applies = heading
                .split_once('(')
                .and_then(|(_, list)| list.split_once(')'))
                .expect("command list")
                .0;
            for command in applies.split(", ") {
                for flag in flags_in(body) {
                    assert!(accepts(command, &flag), "help: {command} --{flag}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "only {checked} documented flags found");
    }

    #[test]
    fn every_flag_the_readme_documents_is_accepted() {
        let readme = include_str!("../../../README.md");
        // Join shell continuation lines, then check every `metaai
        // <command> …` invocation up to a comment, pipe or code span end.
        let joined = readme.replace("\\\n", " ");
        let mut checked = 0;
        for line in joined.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (i, token) in tokens.iter().enumerate() {
                if !token.trim_start_matches('`').ends_with("metaai") {
                    continue;
                }
                let mut rest = tokens[i + 1..].iter().skip_while(|t| **t == "--");
                let Some(command) = rest.next() else { continue };
                // `metaai serve` in prose: the code span ends at the command.
                if command.ends_with('`') || !FLAGS.iter().any(|(c, _)| c == command) {
                    continue;
                }
                for token in rest {
                    if ["#", "|", "&&", ";", ">"].contains(token) {
                        break;
                    }
                    for flag in flags_in(token) {
                        assert!(accepts(command, &flag), "README: {command} --{flag}");
                        checked += 1;
                    }
                    if token.contains('`') {
                        break;
                    }
                }
            }
        }
        assert!(checked > 20, "only {checked} documented flags found");
    }
}
