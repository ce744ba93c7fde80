//! The `metaai` subcommands.

use crate::args::Args;
use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::rng::SimRng;
use metaai_mts::control::ControlModel;
use metaai_nn::augment::Augmentation;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::io::{load_model, save_model};
use metaai_nn::metrics::ConfusionMatrix;
use metaai_nn::train::TrainConfig;

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// Enables telemetry for the run when `--metrics-out <path>` is present
/// (registering the full instrument set so the snapshot is complete even
/// for stages this command never reaches).
fn metrics_begin(args: &Args) {
    if args.options.contains_key("metrics-out") {
        metaai::telemetry::install().set_enabled(true);
    }
}

/// Writes the registry snapshot to the `--metrics-out` path, as JSON by
/// default or Prometheus text with `--metrics-format prom`. Returns an
/// exit code override on failure.
fn metrics_finish(args: &Args) -> Option<i32> {
    let path = args.options.get("metrics-out")?;
    let registry = metaai_telemetry::global();
    let rendered = match args.get_or("metrics-format", "json") {
        "json" => registry.render_json(),
        "prom" | "prometheus" => registry.render_prometheus(),
        other => {
            return Some(fail(&format!(
                "unknown --metrics-format {other:?} (expected json|prom)"
            )))
        }
    };
    match std::fs::write(path, rendered) {
        Ok(()) => {
            println!("telemetry snapshot written to {path}");
            None
        }
        Err(e) => Some(fail(&format!("cannot write {path}: {e}"))),
    }
}

struct Setup {
    config: SystemConfig,
    train: ComplexDataset,
    test: ComplexDataset,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let id = DatasetId::parse(args.get_or("dataset", "mnist"))?;
    let scale = Scale::parse(args.get_or("scale", "default"))?;
    let seed: u64 = args.num_or("seed", 42);
    let config = SystemConfig {
        seed,
        ..SystemConfig::paper_default()
    };
    let (train, test) = generate(id, scale, seed).modulate(config.modulation);
    Ok(Setup {
        config,
        train,
        test,
    })
}

fn robust_train_config(args: &Args) -> TrainConfig {
    TrainConfig {
        epochs: args.num_or("epochs", 25),
        seed: args.num_or("seed", 42),
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default())
}

fn load(args: &Args) -> Result<ComplexLnn, String> {
    let path = args.options.get("model").ok_or("missing --model <file>")?;
    load_model(path).map_err(|e| format!("cannot load {path}: {e}"))
}

/// `metaai train`
pub fn train(args: &Args) -> i32 {
    metrics_begin(args);
    let s = match setup(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let tcfg = robust_train_config(args);
    let layers: usize = args.num_or("layers", 1);
    if layers == 0 {
        return fail("--layers expects at least 1");
    }
    println!(
        "training on {} samples ({} classes, U = {} symbols), {} epochs, {layers} layer(s)…",
        s.train.len(),
        s.train.num_classes,
        s.train.input_len(),
        tcfg.epochs
    );
    let t0 = std::time::Instant::now();
    // Product-parameterized factors W_0 ⊙ … ⊙ W_{L-1} (one layer: the
    // complex LNN). The saved model is their effective network, which any
    // stacked deployment can re-factorize.
    let (weights, stats) = TrainEngine::new(tcfg).train_stack(&s.train, layers);
    let net = weights.effective_net();
    let last = stats.last().expect("at least one epoch");
    println!(
        "done in {:.1?}: train loss {:.4}, train accuracy {:.2} %",
        t0.elapsed(),
        last.loss,
        100.0 * last.accuracy
    );
    println!(
        "test (digital) accuracy: {:.2} %",
        100.0 * metaai_nn::train::evaluate(&net, &s.test)
    );
    let out = args.get_or("out", "model.bin");
    match save_model(&net, out) {
        Ok(()) => {
            println!("model written to {out}");
            metrics_finish(args).unwrap_or(0)
        }
        Err(e) => fail(&format!("cannot write {out}: {e}")),
    }
}

/// `metaai eval`
pub fn eval(args: &Args) -> i32 {
    metrics_begin(args);
    let s = match setup(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let net = match load(args) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    if net.input_len() != s.test.input_len() || net.num_classes() != s.test.num_classes {
        return fail(&format!(
            "model shape {}×{} does not match dataset {}×{}",
            net.num_classes(),
            net.input_len(),
            s.test.num_classes,
            s.test.input_len()
        ));
    }
    let digital = metaai_nn::train::evaluate(&net, &s.test);
    println!("digital (simulation) accuracy: {:.2} %", 100.0 * digital);

    let system = MetaAiSystem::builder().config(s.config.clone()).deploy(net);
    println!(
        "deployed on {} atoms; realization error {:.3} %",
        system.array.num_atoms(),
        100.0 * system.realization_error()
    );
    // One prediction vector feeds both the accuracy and the confusion
    // matrix, so the two cannot disagree.
    let n = s.test.input_len();
    let predictions =
        system.ota_predictions(&s.test, "cli-eval", |rng| system.default_conditions(n, rng));
    let mut cm = ConfusionMatrix::new(s.test.num_classes);
    for (&truth, &predicted) in s.test.labels.iter().zip(&predictions) {
        cm.record(truth, predicted);
    }
    println!(
        "over-the-air (prototype) accuracy: {:.2} %",
        100.0 * cm.accuracy()
    );

    if args.flag("confusion") {
        println!("\nconfusion matrix (over the air):\n{}", cm.render());
        println!("macro F1: {:.3}", cm.macro_f1());
        if let Some((t, p, c)) = cm.worst_confusion() {
            println!("worst confusion: true {t} → predicted {p} ({c} times)");
        }
    }
    metrics_finish(args).unwrap_or(0)
}

/// `metaai deploy`
pub fn deploy(args: &Args) -> i32 {
    let s = match setup(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let net = match load(args) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let t0 = std::time::Instant::now();
    let system = MetaAiSystem::builder().config(s.config.clone()).deploy(net);
    let solve_time = t0.elapsed();

    let control = ControlModel::default();
    let u = system.schedule.num_symbols();
    let r = system.schedule.num_outputs();
    println!("schedule solved in {solve_time:.1?}");
    println!("  outputs × symbols: {r} × {u} ({} configurations)", r * u);
    println!(
        "  weight scale σ = {:.3e}, RMS residual {:.3} (normalized)",
        system.schedule.scale, system.schedule.rms_residual
    );
    println!(
        "  relative realization error: {:.3} %",
        100.0 * system.realization_error()
    );
    println!(
        "  per-inference airtime: {:.3} ms, MTS control energy {:.3} mJ",
        1e3 * (r * u) as f64 / s.config.symbol_rate,
        1e3 * control.inference_energy_j(r * u, 2)
    );
    let bits = control.pattern_bits(system.schedule.codes(0, 0));
    println!(
        "  controller: {} groups × {} bits per pattern, {:.0} ns load at 100 MHz",
        bits.len(),
        bits[0].len(),
        1e9 * control.load_time_s(system.array.num_atoms(), 100e6)
    );
    0
}

/// `metaai infer`
pub fn infer(args: &Args) -> i32 {
    metrics_begin(args);
    let s = match setup(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let net = match load(args) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let idx: usize = args.num_or("sample", 0);
    if idx >= s.test.len() {
        return fail(&format!(
            "--sample {idx} out of range (test set has {} samples)",
            s.test.len()
        ));
    }
    let system = MetaAiSystem::builder().config(s.config.clone()).deploy(net);
    let x = &s.test.inputs[idx];
    let mut rng = SimRng::derive_indexed(s.config.seed, SimRng::stream_id("cli-infer"), idx as u64);
    let cond = system.default_conditions(x.len(), &mut rng);
    let trace = system.engine().traced(x, &cond, &mut rng);

    println!("sample {idx} (true class {}):", s.test.labels[idx]);
    for (class, score) in trace.scores.iter().enumerate() {
        let mark = if class == trace.predicted {
            "  ← predicted"
        } else {
            ""
        };
        println!("  class {class}: {score:.4e}{mark}");
    }
    let verdict = if trace.predicted == s.test.labels[idx] {
        "correct"
    } else {
        "WRONG"
    };
    println!("decision: class {} ({verdict})", trace.predicted);

    if let Some(path) = args.options.get("trace") {
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => return fail(&format!("cannot create {path}: {e}")),
        };
        if let Err(e) = metaai::trace::write_csv(&trace, std::io::BufWriter::new(file)) {
            return fail(&format!("cannot write trace: {e}"));
        }
        println!(
            "per-symbol trace written to {path} ({} rows)",
            trace.rows.len()
        );
    }
    metrics_finish(args).unwrap_or(0)
}

/// The `serve` queue and pool flags (`--workers`, `--max-batch`,
/// `--queue-cap`, `--policy`) as a [`metaai_serve::ServeConfig`]. A zero
/// count is an error here, before any model is loaded or deployed.
fn serve_config(args: &Args) -> Result<metaai_serve::ServeConfig, String> {
    let policy = match args.get_or("policy", "shed") {
        "shed" => metaai_serve::OverflowPolicy::Shed,
        "block" => metaai_serve::OverflowPolicy::Block,
        other => return Err(format!("unknown --policy {other:?} (expected shed|block)")),
    };
    let at_least_one = |key: &str, default: usize| match args.num_or(key, default) {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    };
    let defaults = metaai_serve::ServeConfig::default();
    Ok(metaai_serve::ServeConfig {
        max_batch: at_least_one("max-batch", defaults.max_batch)?,
        queue_capacity: at_least_one("queue-cap", defaults.queue_capacity)?,
        workers: at_least_one("workers", defaults.workers)?,
        policy,
        ..defaults
    })
}

/// `metaai serve` — long-running OTA inference service over TCP. Each
/// `--model` flag registers one tenant: `--model name=file` serves
/// `file` under `name`, a bare `--model file` serves it as the default
/// model (where v1 clients land). The flag repeats to serve several
/// models on one port, each with its own queue and worker pool.
///
/// `--adapt <mps>` attaches one online-adaptation controller per model:
/// the receiver walks the paper's arc at `<mps>` m/s and each
/// controller probes, warm re-solves, and hot-swaps its deployment as
/// the channel drifts (epochs tick up; clients only ever see the echo
/// change). `--adapt-probes <dataset>` enables the accuracy probe on
/// that dataset's held-out set; without it the policy is residual-only.
/// `--adapt-interval-ms`, `--adapt-threshold`, `--adapt-residual`,
/// `--adapt-hysteresis`, and `--adapt-cooldown` tune the loop.
pub fn serve(args: &Args) -> i32 {
    metrics_begin(args);
    metaai_serve::register_metrics();
    metaai_adapt::register_metrics();
    let serve_cfg = match serve_config(args) {
        Ok(cfg) => cfg,
        Err(e) => return fail(&e),
    };
    let specs = args.all("model");
    if specs.is_empty() {
        return fail("missing --model <file> (or --model <name>=<file>, repeatable)");
    }
    let mut models: Vec<(String, ComplexLnn)> = Vec::new();
    for spec in specs {
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) if !name.is_empty() => (name.to_string(), path),
            _ => (metaai_serve::DEFAULT_MODEL.to_string(), spec),
        };
        if models.iter().any(|(n, _)| *n == name) {
            return fail(&format!("--model {name:?} given twice"));
        }
        let net = match load_model(path) {
            Ok(n) => n,
            Err(e) => return fail(&format!("cannot load {path}: {e}")),
        };
        models.push((name, net));
    }
    let seed: u64 = args.num_or("seed", 42);
    let config = SystemConfig {
        seed,
        ..SystemConfig::paper_default()
    };
    let port: u16 = args.num_or("port", 7077);
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind 127.0.0.1:{port}: {e}")),
    };
    let addr = listener.local_addr().expect("bound listener");

    let mut builder = metaai_serve::Server::builder();
    let model_count = models.len();
    for (name, net) in models {
        let t0 = std::time::Instant::now();
        let system =
            std::sync::Arc::new(MetaAiSystem::builder().config(config.clone()).deploy(net));
        println!(
            "deployed {name}: {} classes × {} symbols on {} atoms in {:.1?} \
             (realization error {:.3} %)",
            system.engine().num_outputs(),
            system.engine().num_symbols(),
            system.array.num_atoms(),
            t0.elapsed(),
            100.0 * system.realization_error()
        );
        builder = builder.model(name, system);
    }
    println!(
        "serving {model_count} model(s) on {addr} — {} workers/model, batch ≤ {}, \
         queue {} ({} overflow); \
         send a SHUTDOWN frame (loadgen --shutdown) to drain and stop",
        serve_cfg.workers,
        serve_cfg.max_batch,
        serve_cfg.queue_capacity,
        args.get_or("policy", "shed"),
    );
    let server = builder.config(serve_cfg).start();

    let mut adapt_handles = Vec::new();
    if let Some(mps) = args.options.get("adapt") {
        let mps: f64 = match mps
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
        {
            Some(v) => v,
            None => {
                return fail(&format!(
                    "--adapt expects a positive speed in m/s, got {mps:?}"
                ))
            }
        };
        let probe_dataset = match args.options.get("adapt-probes") {
            None => None,
            Some(name) => match DatasetId::parse(name) {
                Ok(id) => Some(id),
                Err(e) => return fail(&e),
            },
        };
        let defaults = metaai_adapt::TriggerPolicy::default();
        let policy = metaai_adapt::TriggerPolicy {
            // Without labelled probes the accuracy signal is meaningless;
            // staleness is then judged on the channel residual alone.
            probe_accuracy_floor: if probe_dataset.is_some() {
                args.num_or("adapt-threshold", defaults.probe_accuracy_floor)
            } else {
                0.0
            },
            residual_ceiling: args.num_or("adapt-residual", defaults.residual_ceiling),
            hysteresis: args.num_or("adapt-hysteresis", defaults.hysteresis),
            cooldown_rounds: args.num_or("adapt-cooldown", defaults.cooldown_rounds),
        };
        let interval = std::time::Duration::from_millis(args.num_or("adapt-interval-ms", 500u64));
        for entry in server.registry().entries() {
            let system = entry.current().system.clone();
            let symbols = system.channels.cols();
            let probes = match probe_dataset {
                Some(id) => {
                    let (_, test) = generate(id, Scale::Quick, seed).modulate(config.modulation);
                    if test.input_len() != symbols {
                        return fail(&format!(
                            "--adapt-probes {}: {} symbols per sample, but model {:?} \
                             serves {symbols}",
                            args.get_or("adapt-probes", "?"),
                            test.input_len(),
                            entry.name(),
                        ));
                    }
                    metaai_adapt::ProbeSet::from_dataset(&test, 32, seed)
                }
                None => {
                    // Unlabelled random probes: enough to realize the
                    // live channel and read the residual.
                    let mut rng = SimRng::derive(seed, "serve-adapt-probes");
                    let inputs: Vec<metaai_math::CVec> = (0..8)
                        .map(|_| {
                            metaai_math::CVec::from_vec(
                                (0..symbols).map(|_| rng.complex_gaussian(1.0)).collect(),
                            )
                        })
                        .collect();
                    metaai_adapt::ProbeSet {
                        labels: vec![0; inputs.len()],
                        inputs,
                        seed,
                    }
                }
            };
            let view = metaai_adapt::MobilityDrift {
                base: system.config.clone(),
                schedule: metaai::mobility::DriftSchedule::paper_walk(mps),
            };
            let ctl =
                metaai_adapt::AdaptController::new(entry.clone(), Box::new(view), probes, policy);
            adapt_handles.push((entry.name().to_string(), ctl.spawn(interval)));
        }
        println!(
            "adaptation on: receiver walking at {mps} m/s, probing every {interval:?} \
             (residual ceiling {}, accuracy floor {})",
            policy.residual_ceiling, policy.probe_accuracy_floor,
        );
    }

    let outcome = metaai_serve::tcp::serve(listener, server);
    for (name, handle) in adapt_handles {
        match handle.stop() {
            Ok((ctl, reports)) => {
                let swaps = reports.iter().filter(|r| r.swap.is_some()).count();
                println!(
                    "adaptation for {name}: {} rounds, {swaps} re-solve(s) swapped in",
                    ctl.rounds()
                );
            }
            // A dead adaptation loop must not turn a clean drain into a
            // crash; the death is already on metaai.adapt.controller_panics.
            Err(panic) => eprintln!("adaptation for {name}: {panic}"),
        }
    }
    match outcome {
        Ok(()) => {
            println!("drained and stopped");
            metrics_finish(args).unwrap_or(0)
        }
        Err(e) => fail(&format!("serve loop failed: {e}")),
    }
}

/// `metaai scan`
pub fn scan(args: &Args) -> i32 {
    let angle: f64 = args.num_or("angle", 25.0);
    let config = SystemConfig::paper_default().with_rx_at(3.0, angle);
    let mut array =
        metaai_mts::array::MtsArray::paper_prototype(config.prototype, config.mts_center);
    let link = metaai_mts::channel::MtsLink::new(&array, config.tx, config.rx, config.freq_hz);
    let est = metaai_mts::beamscan::estimate_receiver_angle(
        &mut array,
        &link,
        metaai_rf::geometry::deg_to_rad(-60.0),
        metaai_rf::geometry::deg_to_rad(60.0),
        121,
    );
    println!(
        "receiver placed at {angle:.1}° — beam scan estimates {:.1}°",
        metaai_rf::geometry::rad_to_deg(est)
    );
    0
}

/// `metaai export`
pub fn export(args: &Args) -> i32 {
    let id = match DatasetId::parse(args.get_or("dataset", "mnist")) {
        Ok(id) => id,
        Err(e) => return fail(&e),
    };
    let scale = match Scale::parse(args.get_or("scale", "quick")) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let seed: u64 = args.num_or("seed", 42);
    let per_class: usize = args.num_or("per-class", 8);
    let out = args.get_or("out", "contact_sheet.pgm");

    let split = metaai_datasets::generate(id, scale, seed);
    let spec = metaai_datasets::DatasetSpec::of(id, scale);
    let (sheet, w, h) = metaai_datasets::export::contact_sheet(
        &split.train.samples,
        &split.train.labels,
        spec.classes,
        spec.width,
        spec.height,
        per_class,
    );
    match metaai_datasets::export::write_pgm(&sheet, w, h, out) {
        Ok(()) => {
            println!(
                "{}: {} classes × {per_class} samples → {out} ({w}×{h} PGM)",
                id.name(),
                spec.classes
            );
            0
        }
        Err(e) => fail(&format!("cannot write {out}: {e}")),
    }
}

/// `metaai wdd`
pub fn wdd(args: &Args) -> i32 {
    let atoms: Vec<usize> = args
        .get_or("atoms", "16,32,64,128,256,512")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    if atoms.is_empty() {
        return fail("--atoms expects a comma-separated list of counts");
    }
    let cfg = metaai_mts::wdd::WddConfig::default();
    let seed: u64 = args.num_or("seed", 42);
    println!(
        "WDD (ε = {}, {} samples per point):",
        cfg.epsilon, cfg.samples
    );
    for (m, w) in metaai_mts::wdd::wdd_sweep(&atoms, &cfg, seed) {
        println!("  M = {m:<5} WDD = {w:.3}");
    }
    0
}

/// `metaai bench` — run declarative scenario recipes (see
/// `metaai_bench::scenario` and DESIGN.md §14).
///
/// ```text
/// metaai bench list
/// metaai bench run --recipes recipes/quick [--out-dir scenario-results]
/// metaai bench run --recipe recipes/quick/serve-clean.recipe
/// ```
///
/// `run` writes one `<recipe>-<scenario>.json` per result plus a
/// `merged.json` that `bench_gate` compares against a baseline (a
/// `merged.json` is itself a valid baseline), and exits non-zero if any
/// scenario errors (the error still lands in the merged report, so the
/// artifact shows what failed).
pub fn bench(args: &Args) -> i32 {
    use metaai_bench::scenario;

    match args.positional.first().map(String::as_str) {
        Some("list") => {
            println!("scenario registry:");
            for s in scenario::SCENARIOS {
                println!("  {s}");
            }
            0
        }
        Some("run") => {
            let mut recipes = Vec::new();
            for path in args.all("recipe") {
                match scenario::load_recipe_file(std::path::Path::new(path)) {
                    Ok(r) => recipes.push(r),
                    Err(e) => return fail(&e),
                }
            }
            if let Some(dir) = args.options.get("recipes") {
                match scenario::load_recipe_dir(std::path::Path::new(dir)) {
                    Ok(rs) => recipes.extend(rs),
                    Err(e) => return fail(&e),
                }
            }
            if recipes.is_empty() {
                return fail("bench run needs --recipes DIR or --recipe FILE");
            }
            let out_dir = args.get_or("out-dir", "scenario-results");
            if let Err(e) = std::fs::create_dir_all(out_dir) {
                return fail(&format!("cannot create {out_dir}: {e}"));
            }

            let mut runs = Vec::new();
            let mut errors = 0usize;
            for recipe in recipes {
                println!(
                    "recipe {} (seed {}): {}",
                    recipe.name,
                    recipe.seed,
                    recipe.scenarios.join(", ")
                );
                let results = scenario::run_recipe(&recipe);
                for (name, result) in &results {
                    match result {
                        Ok(outcome) => {
                            let path = format!("{out_dir}/{}-{name}.json", recipe.name);
                            let doc = scenario::result_json(&recipe, name, outcome);
                            if let Err(e) = std::fs::write(&path, doc.render()) {
                                return fail(&format!("cannot write {path}: {e}"));
                            }
                            println!("  {name:<18} ok → {path}");
                        }
                        Err(e) => {
                            errors += 1;
                            eprintln!("  {name:<18} ERROR: {e}");
                        }
                    }
                }
                runs.push(scenario::RecipeRun { recipe, results });
            }

            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let merged = scenario::merged_json(cores, &runs);
            let merged_path = format!("{out_dir}/merged.json");
            if let Err(e) = std::fs::write(&merged_path, merged.render()) {
                return fail(&format!("cannot write {merged_path}: {e}"));
            }
            let total: usize = runs.iter().map(|r| r.results.len()).sum();
            println!(
                "{} scenario run(s), {errors} error(s) → {merged_path}",
                total
            );

            if errors > 0 {
                1
            } else {
                0
            }
        }
        Some(other) => fail(&format!(
            "unknown bench action {other:?} (expected run|list)"
        )),
        None => fail("bench needs an action: run or list"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_train_then_eval_through_files() {
        let dir = std::env::temp_dir().join("metaai-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let model = dir.join("model.bin");
        let model_s = model.to_str().expect("utf8").to_string();

        let train_args = crate::args::Args::parse(
            format!("train --dataset afhq --scale quick --epochs 8 --out {model_s}")
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(train(&train_args), 0);
        assert!(model.exists());

        let eval_args = crate::args::Args::parse(
            format!("eval --dataset afhq --scale quick --model {model_s}")
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(eval(&eval_args), 0);
        let _ = std::fs::remove_file(&model);
    }

    #[test]
    fn eval_rejects_shape_mismatch() {
        let dir = std::env::temp_dir().join("metaai-cli-test2");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let model = dir.join("model.bin");
        let model_s = model.to_str().expect("utf8").to_string();
        // Train on AFHQ (3 classes), evaluate against MNIST (10 classes).
        let train_args = crate::args::Args::parse(
            format!("train --dataset afhq --scale quick --epochs 2 --out {model_s}")
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(train(&train_args), 0);
        let eval_args = crate::args::Args::parse(
            format!("eval --dataset mnist --scale quick --model {model_s}")
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(eval(&eval_args), 2);
        let _ = std::fs::remove_file(&model);
    }

    #[test]
    fn eval_metrics_out_writes_snapshot_with_all_stages() {
        let dir = std::env::temp_dir().join("metaai-cli-test3");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let model = dir.join("model.bin");
        let model_s = model.to_str().expect("utf8").to_string();
        let metrics = dir.join("metrics.json");
        let metrics_s = metrics.to_str().expect("utf8").to_string();

        let train_args = crate::args::Args::parse(
            format!("train --dataset afhq --scale quick --epochs 2 --out {model_s}")
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(train(&train_args), 0);

        let eval_args = crate::args::Args::parse(
            format!(
                "eval --dataset afhq --scale quick --model {model_s} --metrics-out {metrics_s}"
            )
            .split_whitespace()
            .map(String::from),
        );
        assert_eq!(eval(&eval_args), 0);

        let snap = std::fs::read_to_string(&metrics).expect("snapshot written");
        // Engine, train, and solver instruments must all be present — the
        // solver's Eqn-4 residual histogram in particular.
        for name in [
            "metaai.core.engine.samples",
            "metaai.core.engine.chips",
            "metaai.nn.train.epochs",
            "metaai.mts.solver.solves",
            "metaai.mts.solver.residual",
        ] {
            assert!(snap.contains(name), "snapshot missing {name}:\n{snap}");
        }
        let _ = std::fs::remove_file(&model);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn metrics_finish_rejects_unknown_format() {
        let args = crate::args::Args::parse(
            "eval --metrics-out /tmp/x.json --metrics-format yaml"
                .split_whitespace()
                .map(String::from),
        );
        assert_eq!(metrics_finish(&args), Some(2));
    }

    #[test]
    fn serve_flags_build_the_serve_config() {
        let args = crate::args::Args::parse(
            "serve --workers 3 --max-batch 5 --queue-cap 7 --policy block"
                .split_whitespace()
                .map(String::from),
        );
        let cfg = serve_config(&args).expect("valid flags");
        assert_eq!(
            (cfg.workers, cfg.max_batch, cfg.queue_capacity, cfg.policy),
            (3, 5, 7, metaai_serve::OverflowPolicy::Block)
        );
        let bad_policy =
            crate::args::Args::parse("serve --policy drop".split_whitespace().map(String::from));
        assert!(serve_config(&bad_policy).is_err());
    }

    #[test]
    fn serve_rejects_a_zero_pool_batch_or_queue_before_deploying() {
        for flag in ["workers", "max-batch", "queue-cap"] {
            let line = format!("serve --model missing.bin --{flag} 0");
            let args = crate::args::Args::parse(line.split_whitespace().map(String::from));
            let err = serve_config(&args).expect_err(flag);
            assert!(err.contains(flag), "{err}");
            assert_eq!(serve(&args), 2, "{flag}");
        }
    }

    #[test]
    fn scan_command_runs() {
        let args = crate::args::Args::parse("scan --angle 20".split_whitespace().map(String::from));
        assert_eq!(scan(&args), 0);
    }
}
