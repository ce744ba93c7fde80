//! Recipe-driven scenario harness: declarative workloads over the
//! existing engine/serve/chaos machinery.
//!
//! A *recipe* is a small hand-rolled `key = value` text file (no serde —
//! same discipline as [`crate::gate`]) describing the dataset preset,
//! channel conditions, client count, fault profile, mobility schedule,
//! and deterministic seeds of one workload. A *scenario* is a named way to
//! exercise a materialized recipe (`offline-accuracy`,
//! `engine-throughput`, `serve-load`, `serve-chaos`, `multi-tenant-mix`,
//! `mobility-sweep`, `adaptive-mobility`, `stacked-accuracy`). The runner
//! executes every scenario a recipe names and emits one structured JSON
//! result per (recipe, scenario), plus a merged report that
//! `bench_gate` compares against a committed baseline.
//!
//! ## Determinism contract
//!
//! Each result object splits into a `fixed` subtree (accuracies,
//! realization errors, prediction histograms, verified-sample counts —
//! everything derived from seeded streams) and a `timing` subtree
//! (elapsed time, swap latency, fault counters — everything a wall clock
//! touches). Every serve scenario sends its requests through the one
//! client in [`crate::serveload`] and checks every reply with
//! [`serveload::verify`]. Running the same recipe twice must produce
//! byte-identical rendered JSON once the `timing` subtree is stripped
//! ([`strip_timing`]); an integration test pins this. `bench_gate`
//! requires every `fixed` subtree to equal the baseline's exactly and
//! never reads `timing`, which is kept for the record only.

use crate::chaos::{self, ChaosConfig, ChaosReport};
use crate::common::ExpContext;
use crate::exp_mobility;
use crate::exp_robustness::walking_interferer_conditions;
use crate::gate::Json;
use crate::serveload;
use metaai::config::SystemConfig;
use metaai::mobility::DriftSchedule;
use metaai::pipeline::MetaAiSystem;
use metaai_adapt::{
    probe_health, AdaptController, HealthReading, MobilityDrift, ProbeSet, StepReport, SwapRecord,
    TriggerPolicy,
};
use metaai_datasets::{generate, DatasetId, Scale};
use metaai_math::rng::SimRng;
use metaai_math::{CVec, C64};
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::TrainConfig;
use metaai_rf::environment::EnvironmentKind;
use metaai_rf::interference::InterferenceRegion;
use metaai_serve::server::FaultInjector;
use metaai_serve::tcp::{self, ClientConfig, RetryPolicy, Target, TcpClient};
use metaai_serve::{ModelEntry, OverflowPolicy, ServeConfig, Server};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every scenario the registry knows, in canonical order.
pub const SCENARIOS: &[&str] = &[
    "offline-accuracy",
    "engine-throughput",
    "serve-load",
    "serve-chaos",
    "multi-tenant-mix",
    "mobility-sweep",
    "adaptive-mobility",
    "stacked-accuracy",
];

/// The seed a recipe gets when it does not name one. Fixed so that "the
/// recipe file is the whole workload description" stays true: two hosts
/// parsing the same file run the same streams.
pub const DEFAULT_SEED: u64 = 42;

/// A recipe parse/validation error, with the 1-based source line when
/// the offending text has one (0 for whole-file errors such as a missing
/// required key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeError {
    /// 1-based line of the offending text; 0 for whole-file errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RecipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

/// One declarative workload description. See [`Recipe::parse`] for the
/// file format and `recipes/quick/` for committed examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Recipe name (result files and merged-report keys derive from it).
    pub name: String,
    /// Scenario names to run, in file order (each from [`SCENARIOS`]).
    pub scenarios: Vec<String>,
    /// Primary tenant's dataset.
    pub dataset: DatasetId,
    /// Dataset scale for every tenant.
    pub scale: Scale,
    /// Training epochs for every tenant.
    pub epochs: usize,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Propagation environment archetype.
    pub environment: EnvironmentKind,
    /// Channel SNR in dB.
    pub snr_db: f64,
    /// Extra tenants (dataset per tenant) behind the same server.
    pub tenants: Vec<DatasetId>,
    /// Synchronous clients of `serve-load` and `multi-tenant-mix`.
    pub connections: usize,
    /// Worker threads per model.
    pub workers: usize,
    /// Most requests one server worker takes from its queue at once.
    pub max_batch: usize,
    /// Server submission-queue capacity.
    pub queue_capacity: usize,
    /// What the server does with a full queue.
    pub policy: OverflowPolicy,
    /// Concurrent fault-injecting connections (`serve-chaos`).
    pub chaos_connections: usize,
    /// Faults to land before the chaos run stops (`serve-chaos`).
    pub chaos_faults: u64,
    /// Worker panics injected on the primary tenant (`serve-chaos`).
    pub worker_panics: u64,
    /// Deterministic sample count (verification loops, histograms).
    pub samples: usize,
    /// Receiver speeds for `mobility-sweep`, in m/s.
    pub speeds_mps: Vec<f64>,
    /// Walking-interferer region for `offline-accuracy` (None = clear).
    pub interferer: Option<InterferenceRegion>,
    /// Receiver walking speed for `adaptive-mobility`, in m/s.
    pub drift_mps: f64,
    /// Adaptation rounds for `adaptive-mobility`.
    pub adapt_rounds: usize,
    /// Probe-accuracy floor: the trigger threshold *and* the headline
    /// bar the adaptive track must hold while the static track decays.
    pub adapt_threshold: f64,
    /// Channel-residual trigger ceiling (phase-aligned relative
    /// Frobenius distance).
    pub adapt_residual: f64,
    /// Consecutive unhealthy rounds required before a re-solve.
    pub adapt_hysteresis: u32,
    /// Rounds after a swap during which no new trigger fires.
    pub adapt_cooldown: u64,
    /// Cascaded metasurface layers for `stacked-accuracy` (≥ 2).
    pub layers: usize,
    /// Total meta-atom budget `stacked-accuracy` holds fixed while
    /// comparing a single surface against an L-layer stack.
    pub atom_budget: usize,
}

fn base_recipe() -> Recipe {
    Recipe {
        name: String::new(),
        scenarios: Vec::new(),
        dataset: DatasetId::Afhq,
        scale: Scale::Quick,
        epochs: 2,
        seed: DEFAULT_SEED,
        environment: EnvironmentKind::Office,
        snr_db: 20.0,
        tenants: Vec::new(),
        connections: 2,
        workers: 2,
        max_batch: 8,
        queue_capacity: 512,
        policy: OverflowPolicy::Shed,
        chaos_connections: 2,
        chaos_faults: 40,
        worker_panics: 0,
        samples: 32,
        speeds_mps: vec![1.0],
        interferer: None,
        drift_mps: 0.5,
        adapt_rounds: 12,
        adapt_threshold: 0.5,
        adapt_residual: 0.2,
        adapt_hysteresis: 1,
        adapt_cooldown: 2,
        layers: 2,
        atom_budget: 64,
    }
}

fn parse_environment(v: &str) -> Result<EnvironmentKind, String> {
    match v {
        "corridor" => Ok(EnvironmentKind::Corridor),
        "office" => Ok(EnvironmentKind::Office),
        "laboratory" => Ok(EnvironmentKind::Laboratory),
        other => Err(format!(
            "unknown environment {other:?} (expected corridor|office|laboratory)"
        )),
    }
}

fn environment_key(e: EnvironmentKind) -> &'static str {
    match e {
        EnvironmentKind::Corridor => "corridor",
        EnvironmentKind::Office => "office",
        EnvironmentKind::Laboratory => "laboratory",
    }
}

fn parse_policy(v: &str) -> Result<OverflowPolicy, String> {
    match v {
        "shed" => Ok(OverflowPolicy::Shed),
        "block" => Ok(OverflowPolicy::Block),
        other => Err(format!("unknown policy {other:?} (expected shed|block)")),
    }
}

fn policy_key(p: OverflowPolicy) -> &'static str {
    match p {
        OverflowPolicy::Shed => "shed",
        OverflowPolicy::Block => "block",
    }
}

fn parse_interferer(v: &str) -> Result<Option<InterferenceRegion>, String> {
    if v == "none" {
        return Ok(None);
    }
    InterferenceRegion::all()
        .into_iter()
        .find(|r| r.name() == v)
        .map(Some)
        .ok_or_else(|| format!("unknown interferer {v:?} (expected none|R1|R2|R3|R4)"))
}

impl Recipe {
    /// Parses the recipe text format:
    ///
    /// ```text
    /// # comments run to end of line; blank lines are skipped
    /// name = serve-clean          # required
    /// scenario = serve-load       # required; repeatable, commas allowed
    /// seed = 7                    # defaults to 42 when missing
    /// dataset = afhq              # primary tenant
    /// tenant = mnist              # repeatable: extra tenants
    /// speeds-mps = 1.0, 4.0
    /// interferer = R4             # or none
    /// ```
    ///
    /// Unknown keys, duplicate scalar keys, unknown scenario names, and
    /// malformed values are all rejected with the 1-based line number.
    /// Every omitted key takes a fixed default (`base_recipe` — visible
    /// through [`Recipe::render`]), so a recipe file plus this parser
    /// fully determines the workload.
    pub fn parse(text: &str) -> Result<Recipe, RecipeError> {
        let mut recipe = base_recipe();
        let mut seen: Vec<String> = Vec::new();
        let err = |line: usize, message: String| RecipeError { line, message };

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(
                    line_no,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let key = key.trim();
            let value = value.trim();
            if value.is_empty() {
                return Err(err(line_no, format!("empty value for `{key}`")));
            }
            // `scenario` and `tenant` are repeatable; everything else is
            // set-once.
            if key != "scenario" && key != "tenant" {
                if seen.iter().any(|k| k == key) {
                    return Err(err(line_no, format!("duplicate key `{key}`")));
                }
                seen.push(key.to_string());
            }
            let fail = |message: String| err(line_no, message);
            match key {
                "name" => {
                    if !value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(fail(format!(
                            "recipe name {value:?} may only contain [A-Za-z0-9_-]"
                        )));
                    }
                    recipe.name = value.to_string();
                }
                "scenario" => {
                    for part in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        if !SCENARIOS.contains(&part) {
                            return Err(fail(format!(
                                "unknown scenario {part:?} (expected one of {})",
                                SCENARIOS.join(", ")
                            )));
                        }
                        if recipe.scenarios.iter().any(|s| s == part) {
                            return Err(fail(format!("scenario {part:?} listed twice")));
                        }
                        recipe.scenarios.push(part.to_string());
                    }
                }
                "dataset" => recipe.dataset = DatasetId::parse(value).map_err(fail)?,
                "tenant" => recipe.tenants.push(DatasetId::parse(value).map_err(fail)?),
                "scale" => recipe.scale = Scale::parse(value).map_err(fail)?,
                "epochs" => recipe.epochs = parse_num(key, value, 1).map_err(fail)?,
                "seed" => recipe.seed = parse_num(key, value, 0).map_err(fail)?,
                "environment" => recipe.environment = parse_environment(value).map_err(fail)?,
                "snr-db" => {
                    recipe.snr_db = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| {
                            fail(format!("`snr-db` expects a finite number, got {value:?}"))
                        })?;
                }
                "connections" => recipe.connections = parse_num(key, value, 1).map_err(fail)?,
                "workers" => recipe.workers = parse_num(key, value, 1).map_err(fail)?,
                "max-batch" => recipe.max_batch = parse_num(key, value, 1).map_err(fail)?,
                "queue-capacity" => {
                    recipe.queue_capacity = parse_num(key, value, 1).map_err(fail)?
                }
                "policy" => recipe.policy = parse_policy(value).map_err(fail)?,
                "chaos-connections" => {
                    recipe.chaos_connections = parse_num(key, value, 1).map_err(fail)?
                }
                "chaos-faults" => recipe.chaos_faults = parse_num(key, value, 1).map_err(fail)?,
                "worker-panics" => recipe.worker_panics = parse_num(key, value, 0).map_err(fail)?,
                "samples" => recipe.samples = parse_num(key, value, 1).map_err(fail)?,
                "speeds-mps" => {
                    let speeds: Result<Vec<f64>, _> = value
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            s.parse::<f64>()
                                .ok()
                                .filter(|v| v.is_finite() && *v > 0.0)
                                .ok_or_else(|| {
                                    fail(format!(
                                        "`speeds-mps` expects positive numbers, got {s:?}"
                                    ))
                                })
                        })
                        .collect();
                    let speeds = speeds?;
                    if speeds.is_empty() {
                        return Err(fail("`speeds-mps` needs at least one speed".to_string()));
                    }
                    recipe.speeds_mps = speeds;
                }
                "interferer" => recipe.interferer = parse_interferer(value).map_err(fail)?,
                "drift-mps" => {
                    recipe.drift_mps = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| {
                            fail(format!(
                                "`drift-mps` expects a positive number, got {value:?}"
                            ))
                        })?;
                }
                "adapt-rounds" => recipe.adapt_rounds = parse_num(key, value, 1).map_err(fail)?,
                "adapt-threshold" => {
                    recipe.adapt_threshold = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && (0.0..=1.0).contains(v))
                        .ok_or_else(|| {
                            fail(format!(
                                "`adapt-threshold` expects a number in [0, 1], got {value:?}"
                            ))
                        })?;
                }
                "adapt-residual" => {
                    recipe.adapt_residual = value
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(|| {
                            fail(format!(
                                "`adapt-residual` expects a positive number, got {value:?}"
                            ))
                        })?;
                }
                "adapt-hysteresis" => {
                    recipe.adapt_hysteresis = parse_num(key, value, 1).map_err(fail)?
                }
                "adapt-cooldown" => {
                    recipe.adapt_cooldown = parse_num(key, value, 0).map_err(fail)?
                }
                "layers" => recipe.layers = parse_num(key, value, 2).map_err(fail)?,
                "atom-budget" => recipe.atom_budget = parse_num(key, value, 2).map_err(fail)?,
                other => return Err(err(line_no, format!("unknown key `{other}`"))),
            }
        }

        if recipe.name.is_empty() {
            return Err(err(0, "missing required key `name`".to_string()));
        }
        if recipe.scenarios.is_empty() {
            return Err(err(0, "missing required key `scenario`".to_string()));
        }
        Ok(recipe)
    }

    /// Renders the canonical text form: every key explicit, repeatable
    /// keys one per line. `parse(render(r))` reproduces `r` exactly —
    /// the committed quick recipes are round-tripped through this in
    /// tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", self.name));
        for s in &self.scenarios {
            out.push_str(&format!("scenario = {s}\n"));
        }
        out.push_str(&format!("dataset = {}\n", self.dataset.key()));
        for t in &self.tenants {
            out.push_str(&format!("tenant = {}\n", t.key()));
        }
        out.push_str(&format!("scale = {}\n", self.scale.key()));
        out.push_str(&format!("epochs = {}\n", self.epochs));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!(
            "environment = {}\n",
            environment_key(self.environment)
        ));
        out.push_str(&format!("snr-db = {}\n", self.snr_db));
        out.push_str(&format!("connections = {}\n", self.connections));
        out.push_str(&format!("workers = {}\n", self.workers));
        out.push_str(&format!("max-batch = {}\n", self.max_batch));
        out.push_str(&format!("queue-capacity = {}\n", self.queue_capacity));
        out.push_str(&format!("policy = {}\n", policy_key(self.policy)));
        out.push_str(&format!("chaos-connections = {}\n", self.chaos_connections));
        out.push_str(&format!("chaos-faults = {}\n", self.chaos_faults));
        out.push_str(&format!("worker-panics = {}\n", self.worker_panics));
        out.push_str(&format!("samples = {}\n", self.samples));
        let speeds: Vec<String> = self.speeds_mps.iter().map(|s| format!("{s}")).collect();
        out.push_str(&format!("speeds-mps = {}\n", speeds.join(", ")));
        out.push_str(&format!(
            "interferer = {}\n",
            self.interferer.map_or("none", InterferenceRegion::name)
        ));
        out.push_str(&format!("drift-mps = {}\n", self.drift_mps));
        out.push_str(&format!("adapt-rounds = {}\n", self.adapt_rounds));
        out.push_str(&format!("adapt-threshold = {}\n", self.adapt_threshold));
        out.push_str(&format!("adapt-residual = {}\n", self.adapt_residual));
        out.push_str(&format!("adapt-hysteresis = {}\n", self.adapt_hysteresis));
        out.push_str(&format!("adapt-cooldown = {}\n", self.adapt_cooldown));
        out.push_str(&format!("layers = {}\n", self.layers));
        out.push_str(&format!("atom-budget = {}\n", self.atom_budget));
        out
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.max_batch,
            queue_capacity: self.queue_capacity,
            workers: self.workers,
            policy: self.policy,
            ..ServeConfig::default()
        }
    }
}

fn parse_num<T>(key: &str, value: &str, min: u64) -> Result<T, String>
where
    T: TryFrom<u64>,
{
    let n: u64 = value
        .parse()
        .map_err(|_| format!("`{key}` expects a non-negative integer, got {value:?}"))?;
    if n < min {
        return Err(format!("`{key}` must be at least {min}, got {n}"));
    }
    T::try_from(n).map_err(|_| format!("`{key}` value {n} out of range"))
}

/// One trained tenant of a materialized recipe.
pub struct Tenant {
    /// Registry name (the dataset key, suffixed on collision).
    pub name: String,
    /// The trained, deployed system.
    pub system: Arc<MetaAiSystem>,
    /// The tenant's modulated test set.
    pub test: ComplexDataset,
}

/// A recipe with its trained system(s): what the serve/engine scenarios
/// actually run against. [`materialize`] builds one from datasets; tests
/// may assemble one by hand (e.g. the chaos soak's untrained tiny
/// systems) to drive the scenario backends directly.
pub struct Materialized {
    /// The recipe this was built from.
    pub recipe: Recipe,
    /// Primary tenant first, extra tenants in recipe order.
    pub tenants: Vec<Tenant>,
}

/// Trains and deploys every tenant of `recipe`. Tenant `i` trains on
/// `seed + i` (wrapping) so same-dataset tenants still get independent
/// weights; everything else copies the recipe verbatim.
pub fn materialize(recipe: &Recipe) -> Materialized {
    let mut tenants: Vec<Tenant> = Vec::new();
    let ids = std::iter::once(recipe.dataset).chain(recipe.tenants.iter().copied());
    for (i, id) in ids.enumerate() {
        let seed = recipe.seed.wrapping_add(i as u64);
        let config = SystemConfig {
            seed,
            environment: recipe.environment,
            snr_db: recipe.snr_db,
            ..SystemConfig::paper_default()
        };
        let (train, test) = generate(id, recipe.scale, seed).modulate(config.modulation);
        let tcfg = TrainConfig {
            epochs: recipe.epochs,
            seed,
            ..TrainConfig::default()
        }
        .with_augmentation(Augmentation::cdfa_default())
        .with_augmentation(Augmentation::noise_default());
        let system = MetaAiSystem::builder()
            .config(config)
            .train_and_deploy(&train, &tcfg);
        let mut name = id.key().to_string();
        while tenants.iter().any(|t| t.name == name) {
            name.push_str("-b");
        }
        tenants.push(Tenant {
            name,
            system: Arc::new(system),
            test,
        });
    }
    Materialized {
        recipe: recipe.clone(),
        tenants,
    }
}

/// One scenario's result, split along the determinism contract.
pub struct ScenarioOutcome {
    /// Seed-determined values — byte-identical across runs.
    pub fixed: Json,
    /// Wall-clock-dependent values — elapsed time, latency, counters.
    pub timing: Json,
}

fn kv(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

// ---------------------------------------------------------------------
// Scenario backends
// ---------------------------------------------------------------------

fn offline_accuracy(m: &Materialized) -> Result<ScenarioOutcome, String> {
    let recipe = &m.recipe;
    let t = m.tenants.first().ok_or("no tenants materialized")?;
    let digital = t.system.digital_accuracy(&t.test);
    let ota = t
        .system
        .ota_accuracy(&t.test, &format!("scenario-{}", recipe.name));
    let mut accuracy = vec![kv("digital", num(digital)), kv("ota", num(ota))];
    if let Some(region) = recipe.interferer {
        // A walking interferer in the configured region, the conditions
        // of the robustness experiment (Fig 26).
        let n = t.test.input_len();
        let label = format!("scenario-{}-{}", recipe.name, region.name());
        let interfered = t.system.ota_accuracy_with(&t.test, &label, |rng| {
            walking_interferer_conditions(&t.system, region, n, rng)
        });
        accuracy.push(kv("ota_interfered", num(interfered)));
    }
    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("accuracy", Json::Obj(accuracy)),
            kv("realization_error", num(t.system.realization_error())),
            kv("test_samples", num(t.test.len() as f64)),
        ]),
        timing: Json::Obj(Vec::new()),
    })
}

fn engine_throughput(m: &Materialized) -> Result<ScenarioOutcome, String> {
    let recipe = &m.recipe;
    let t = m.tenants.first().ok_or("no tenants materialized")?;
    if t.test.is_empty() {
        return Err("engine-throughput needs a non-empty test set".to_string());
    }
    let stream = SimRng::stream_id("scenario-engine");
    let classes = t.test.num_classes;
    let mut scratch = Vec::new();

    // Predictions over `samples` indexed scorings — the exact
    // per-sample RNG streams the serve path uses, so this pins the
    // engine's determinism. perfbench times the engine.
    let mut histogram = vec![0u64; classes];
    for i in 0..recipe.samples {
        let x = &t.test.inputs[i % t.test.len()];
        let predicted = t.system.score_indexed(x, stream, i as u64, &mut scratch);
        histogram[predicted] += 1;
    }

    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("samples", num(recipe.samples as f64)),
            kv("predictions", histogram_json(&histogram)),
        ]),
        timing: Json::Obj(Vec::new()),
    })
}

fn histogram_json(counts: &[u64]) -> Json {
    Json::Arr(counts.iter().map(|&c| num(c as f64)).collect())
}

/// A serve stack brought up on an ephemeral loopback port for one
/// scenario, with the handles the scenario needs kept out before the
/// server moves into the accept loop.
struct LiveServer {
    addr: SocketAddr,
    faults: FaultInjector,
    entries: Vec<Arc<ModelEntry>>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn launch(m: &Materialized) -> Result<LiveServer, String> {
    let mut builder = Server::builder();
    for t in &m.tenants {
        builder = builder.model(t.name.clone(), t.system.clone());
    }
    let server = builder.config(m.recipe.serve_config()).start();
    let faults = server.fault_injector();
    let entries: Vec<Arc<ModelEntry>> = server.registry().entries().to_vec();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let thread = std::thread::spawn(move || tcp::serve(listener, server));
    Ok(LiveServer {
        addr,
        faults,
        entries,
        thread,
    })
}

impl LiveServer {
    fn shutdown(self) -> Result<(), String> {
        serveload::shutdown(self.addr).map_err(|e| format!("drain shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
            .map_err(|e| format!("tcp::serve failed: {e}"))
    }
}

/// Sample-index base of `serve-load` and `multi-tenant-mix` requests,
/// disjoint from every other serve scenario's: chaos counts up from 0,
/// the serve-chaos primary from 1 000 000, its witness from 2 000 000
/// and adaptive-mobility from 3 000 000.
const LOAD_SAMPLE_BASE: u64 = 4_000_000;

/// The `serve-load` and `multi-tenant-mix` backend. Each tenant in
/// `tenants` (a prefix of the registry) gets `samples` requests: sample
/// `LOAD_SAMPLE_BASE + i` carries test input `i % len`. The requests go
/// over `connections` synchronous clients dealt round-robin across the
/// tenants (at least one each), as v2 frames when `v2` is set and as v1
/// frames to the default model otherwise. Every reply is verified
/// bitwise; with at most one request in flight per client nothing is
/// shed, so any error reply fails the scenario.
fn verified_load(
    m: &Materialized,
    tenants: &[Tenant],
    v2: bool,
) -> Result<ScenarioOutcome, String> {
    let recipe = &m.recipe;
    if let Some(t) = tenants.iter().find(|t| t.test.is_empty()) {
        return Err(format!("tenant {:?} has an empty test set", t.name));
    }
    let live = launch(m)?;
    let clients = recipe.connections.max(tenants.len());
    // Per client: its tenant and the `(i, predicted)` of every verified
    // reply.
    type ClientResult = Result<(usize, Vec<(usize, usize)>), String>;
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tenant = c % tenants.len();
                // This tenant's clients are tenant, tenant + T, …; this
                // one sends every `share`-th sample from `c / T` on.
                let share = (clients - tenant).div_ceil(tenants.len());
                let first = c / tenants.len();
                let (t, entry, addr) = (&tenants[tenant], &live.entries[tenant], live.addr);
                scope.spawn(move || {
                    let target = if v2 {
                        Target::Model(entry.wire_id())
                    } else {
                        Target::Default
                    };
                    let deployments = [entry.current()];
                    let mut client = TcpClient::connect_with(
                        addr,
                        ClientConfig::with_all(Duration::from_secs(5)),
                    )
                    .map_err(|e| format!("{} connect: {e}", t.name))?;
                    let requests = (first..recipe.samples).step_by(share).map(|i| {
                        let input = t.test.inputs[i % t.test.len()].clone();
                        (LOAD_SAMPLE_BASE + i as u64, input)
                    });
                    let mut replies = Vec::new();
                    serveload::send(&mut client, target, requests, None, |sample, x, reply| {
                        serveload::verify(&deployments, sample, x, reply)?;
                        let predicted = reply.as_ref().map_or(0, |r| r.predicted);
                        replies.push(((sample - LOAD_SAMPLE_BASE) as usize, predicted));
                        Ok(())
                    })
                    .map_err(|e| format!("{} {e}", t.name))?;
                    Ok((tenant, replies))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    live.shutdown()?;

    let mut replies: Vec<Vec<(usize, usize)>> = vec![Vec::new(); tenants.len()];
    for result in results {
        let (tenant, part) = result?;
        replies[tenant].extend(part);
    }
    let mut per_tenant = Vec::new();
    for (t, replies) in tenants.iter().zip(&replies) {
        if replies.len() != recipe.samples {
            return Err(format!(
                "tenant {:?}: {} of {} requests verified",
                t.name,
                replies.len(),
                recipe.samples
            ));
        }
        let mut predictions = vec![0u64; t.test.num_classes];
        let mut correct = 0u64;
        for &(i, predicted) in replies {
            predictions[predicted] += 1;
            correct += u64::from(t.test.labels[i % t.test.len()] == predicted);
        }
        per_tenant.push(kv(
            &t.name,
            Json::Obj(vec![
                kv("verified", num(replies.len() as f64)),
                kv("correct", num(correct as f64)),
                kv("predictions", histogram_json(&predictions)),
            ]),
        ));
    }
    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("connections", num(clients as f64)),
            kv("tenants", Json::Obj(per_tenant)),
        ]),
        timing: Json::Obj(Vec::new()),
    })
}

fn serve_load(m: &Materialized) -> Result<ScenarioOutcome, String> {
    // v1 frames reach only the default model: the primary tenant.
    let primary = m.tenants.get(..1).ok_or("no tenants materialized")?;
    verified_load(m, primary, false)
}

fn multi_tenant_mix(m: &Materialized) -> Result<ScenarioOutcome, String> {
    if m.tenants.len() < 2 {
        return Err(
            "multi-tenant-mix needs at least one `tenant =` beside the primary dataset".to_string(),
        );
    }
    verified_load(m, &m.tenants, true)
}

/// Outcome of the serve-chaos backend, exposed so the chaos-soak
/// integration test can drive the scenario machinery and assert the
/// PR-5/PR-6 acceptance behavior on the pieces directly.
pub struct ChaosSoakOutcome {
    /// The fault-injection side's counters.
    pub chaos: ChaosReport,
    /// Primary-tenant clean requests answered bitwise-identical to
    /// offline scoring (equals `recipe.samples` on success).
    pub primary_verified: u64,
    /// Worker panics injected (and required to have fired).
    pub panics_injected: u64,
    /// Primary worker restarts observed (>= `panics_injected`).
    pub primary_restarts: u64,
    /// Second tenant's isolation witness, when the recipe has one.
    pub secondary: Option<SecondaryOutcome>,
}

/// The isolation witness: a second tenant served clean, with no retry
/// wrapper, while the primary is under fire.
pub struct SecondaryOutcome {
    /// Requests answered first-try, bitwise-identical to offline.
    pub verified: u64,
    /// Peak queue depth observed while polling.
    pub max_depth: usize,
    /// Worker restarts on the second tenant (must be 0).
    pub restarts: u64,
}

/// Clean-traffic input where no test set is sent (`serve-chaos`,
/// `adaptive-mobility`, `loadgen`): derived from the sample index alone,
/// so served replies can be checked bitwise against `score_indexed` on
/// the same deployment stream.
pub fn chaos_clean_input(sample: u64, symbols: usize) -> CVec {
    let mut rng = SimRng::derive(sample, "scenario-chaos-clean");
    CVec::from_vec((0..symbols).map(|_| rng.complex_gaussian(1.0)).collect())
}

/// The serve-chaos backend: chaos connections abuse the listener with
/// wire faults while a clean retrying connection keeps scoring the
/// primary tenant through `worker-panics` injected panics, and (when the
/// recipe has a second tenant) a clean no-retry connection proves
/// cross-tenant isolation. Sample-index spaces are disjoint by
/// construction — chaos counts up from 0, the primary's clean traffic
/// from 1 000 000, the second tenant's from 2 000 000 — so armed panic
/// faults can only fire on the primary.
pub fn run_serve_chaos(m: &Materialized) -> Result<ChaosSoakOutcome, String> {
    let recipe = &m.recipe;
    let primary = m.tenants.first().ok_or("no tenants materialized")?;
    let symbols = primary.system.channels.cols();
    let samples = recipe.samples as u64;
    let panics = recipe.worker_panics.min(samples.saturating_sub(1));
    // Victims spread evenly through the clean sequence, strictly
    // increasing, so each panic lands while traffic is still flowing.
    let victims: Vec<u64> = (0..panics)
        .map(|k| 1_000_000 + samples * (k + 1) / (panics + 1))
        .collect();

    let live = launch(m)?;
    let addr = live.addr;
    let primary_entry = live.entries.first().ok_or("no registered models")?.clone();
    let primary_deploy = primary_entry.current();
    let secondary_entry = live.entries.get(1).cloned();

    let chaos_cfg = ChaosConfig {
        seed: recipe.seed,
        connections: recipe.chaos_connections,
        target_faults: recipe.chaos_faults,
        duration: Duration::from_secs(60),
    };
    let chaos_thread = std::thread::spawn(move || chaos::run(addr, symbols, &chaos_cfg));

    // Primary clean connection: every request retried to an answer and
    // verified bitwise against offline scoring, with panics armed
    // mid-run.
    let clean_thread = std::thread::spawn({
        let faults = live.faults.clone();
        let seed = recipe.seed;
        move || -> Result<u64, String> {
            let mut client =
                TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
                    .map_err(|e| format!("clean connect: {e}"))?;
            let policy = RetryPolicy {
                attempts: 5,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(100),
                seed,
            };
            let deployments = [primary_deploy];
            let requests = (0..samples).map(|i| {
                let sample = 1_000_000 + i;
                if victims.contains(&sample) {
                    faults.panic_on_sample(sample);
                }
                (sample, chaos_clean_input(sample, symbols))
            });
            serveload::send(
                &mut client,
                Target::Default,
                requests,
                Some(&policy),
                |sample, x, reply| serveload::verify(&deployments, sample, x, reply),
            )
            .map_err(|e| format!("clean {e}"))
        }
    });

    // Second tenant (isolation witness) on this thread, concurrent with
    // chaos and the primary's ordeal: no retry wrapper, so a single
    // error reply leaking over fails the scenario outright.
    let secondary = match &secondary_entry {
        None => Ok(None),
        Some(entry) => (|| -> Result<Option<SecondaryOutcome>, String> {
            let w_symbols = m.tenants[1].system.channels.cols();
            // One pinned epoch, no retry: an error reply leaking across
            // tenants or a swap fails the witness outright.
            let deployments = [entry.current()];
            let mut client =
                TcpClient::connect_with(addr, ClientConfig::with_all(Duration::from_secs(5)))
                    .map_err(|e| format!("witness connect: {e}"))?;
            let mut max_depth = 0usize;
            let requests = (0..samples).map(|i| {
                let sample = 2_000_000 + i;
                (sample, chaos_clean_input(sample, w_symbols))
            });
            let verified = serveload::send(
                &mut client,
                Target::Model(entry.wire_id()),
                requests,
                None,
                |sample, x, reply| {
                    serveload::verify(&deployments, sample, x, reply)?;
                    max_depth = max_depth.max(entry.queue().depth());
                    Ok(())
                },
            )
            .map_err(|e| format!("witness {e}"))?;
            Ok(Some(SecondaryOutcome {
                verified,
                max_depth,
                restarts: 0, // filled in below, after the soak settles
            }))
        })(),
    };

    let primary_verified = clean_thread
        .join()
        .map_err(|_| "clean connection thread panicked".to_string())?;
    let chaos_outcome = chaos_thread
        .join()
        .map_err(|_| "chaos thread panicked".to_string())?
        .map_err(|e| format!("chaos never reached the server: {e}"));
    let faults = live.faults.clone();
    let shutdown_outcome = live.shutdown();

    let primary_verified = primary_verified?;
    let mut secondary = secondary?;
    let chaos_report = chaos_outcome?;
    shutdown_outcome?;

    if panics > 0 {
        // The restart counter lags the error reply by the tail of the
        // unwind; poll it rather than racing it. (The drain above already
        // bounds how late it can be.)
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary_entry.worker_restarts() < panics && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let still_armed = faults.armed() as u64;
        if still_armed > 0 {
            return Err(format!(
                "{still_armed} of {panics} armed worker panics never fired"
            ));
        }
        if primary_entry.worker_restarts() < panics {
            return Err(format!(
                "primary restarted {} workers, expected >= {panics}",
                primary_entry.worker_restarts()
            ));
        }
    }
    if let (Some(sec), Some(entry)) = (secondary.as_mut(), secondary_entry.as_ref()) {
        sec.restarts = entry.worker_restarts();
        if sec.restarts != 0 {
            return Err(format!(
                "second tenant's worker pool restarted {} times — the panics were not isolated",
                sec.restarts
            ));
        }
    }
    if chaos_report.faults_injected() < recipe.chaos_faults {
        return Err(format!(
            "only {} of {} target faults injected before the cap",
            chaos_report.faults_injected(),
            recipe.chaos_faults
        ));
    }

    Ok(ChaosSoakOutcome {
        chaos: chaos_report,
        primary_verified,
        panics_injected: panics,
        primary_restarts: primary_entry.worker_restarts(),
        secondary,
    })
}

fn serve_chaos(m: &Materialized) -> Result<ScenarioOutcome, String> {
    let outcome = run_serve_chaos(m)?;
    let mut fixed = vec![
        kv("clean_verified", num(outcome.primary_verified as f64)),
        kv("panics_injected", num(outcome.panics_injected as f64)),
    ];
    if let Some(sec) = &outcome.secondary {
        fixed.push(kv(
            "witness",
            Json::Obj(vec![
                kv("verified", num(sec.verified as f64)),
                kv("error_replies", num(0.0)),
                kv("worker_restarts", num(sec.restarts as f64)),
            ]),
        ));
    }
    let c = &outcome.chaos;
    let mut timing = vec![
        kv("frames_sent", num(c.frames_sent as f64)),
        kv("faults_injected", num(c.faults_injected() as f64)),
        kv("bit_flips", num(c.bit_flips as f64)),
        kv("truncated_frames", num(c.truncated_frames as f64)),
        kv("corrupt_lengths", num(c.corrupt_lengths as f64)),
        kv("mid_frame_disconnects", num(c.mid_frame_disconnects as f64)),
        kv("slow_loris_frames", num(c.slow_loris_frames as f64)),
        kv("reconnects", num(c.reconnects as f64)),
        kv("scored_replies", num(c.scored_replies as f64)),
        kv("error_replies", num(c.error_replies as f64)),
        kv(
            "primary_worker_restarts",
            num(outcome.primary_restarts as f64),
        ),
    ];
    if let Some(sec) = &outcome.secondary {
        timing.push(kv("witness_max_queue_depth", num(sec.max_depth as f64)));
    }
    Ok(ScenarioOutcome {
        fixed: Json::Obj(fixed),
        timing: Json::Obj(timing),
    })
}

fn mobility_sweep(recipe: &Recipe) -> Result<ScenarioOutcome, String> {
    let ctx = ExpContext {
        scale: recipe.scale,
        seed: recipe.seed,
        out_dir: String::new(), // `run` never writes CSVs
    };
    let rows = exp_mobility::run(&ctx, &recipe.speeds_mps);
    // One gated accuracy key per speed (dots in the speed become
    // underscores so flattened paths stay unambiguous), plus the full
    // per-speed rows.
    let mut accuracy = Vec::new();
    let mut speeds = Vec::new();
    for row in &rows {
        let label = format!("speed_{}", row.speed_mps).replace('.', "_");
        accuracy.push(kv(&label, num(row.accuracy)));
        speeds.push(Json::Obj(vec![
            kv("speed_mps", num(row.speed_mps)),
            kv("predicted_trackable", Json::Bool(row.predicted_trackable)),
            kv("recalibrations", num(row.recalibrations as f64)),
            kv("steps", num(row.steps.len() as f64)),
        ]));
    }
    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("accuracy", Json::Obj(accuracy)),
            kv("speeds", Json::Arr(speeds)),
        ]),
        timing: Json::Obj(Vec::new()),
    })
}

/// Live requests sent per adaptation round in `adaptive-mobility` —
/// enough to straddle every swap boundary without turning the scenario
/// into a load test.
const ADAPT_REQUESTS_PER_ROUND: u64 = 4;

/// The adaptive-mobility backend: the same receiver walk, twice.
///
/// The *static* track probes the untouched deployment as it goes stale
/// round by round. The *adaptive* track runs the `metaai-adapt` closed
/// loop (probe → trigger → warm re-solve → hot swap) against a live
/// server while clean traffic keeps flowing — every reply is verified
/// bitwise against the deployment whose epoch it echoes, so a swap can
/// never be observed as a wrong answer, only as a new epoch. The
/// headline acceptance is enforced here, not just reported: over the
/// back half of the walk the static track's probe accuracy must fall
/// below `adapt-threshold` while the adaptive track holds at or above
/// it, and a single dropped or errored request fails the scenario.
fn adaptive_mobility(m: &Materialized) -> Result<ScenarioOutcome, String> {
    let recipe = &m.recipe;
    let t = m.tenants.first().ok_or("no tenants materialized")?;
    let symbols = t.system.channels.cols();
    let rounds = recipe.adapt_rounds as u64;
    let schedule = DriftSchedule::paper_walk(recipe.drift_mps);
    let probes = ProbeSet::from_dataset(&t.test, recipe.samples, recipe.seed);
    let policy = TriggerPolicy {
        probe_accuracy_floor: recipe.adapt_threshold,
        residual_ceiling: recipe.adapt_residual,
        hysteresis: recipe.adapt_hysteresis,
        cooldown_rounds: recipe.adapt_cooldown,
    };

    // Static track: no controller — the deployment just goes stale.
    let static_readings: Vec<HealthReading> = (0..rounds)
        .map(|round| {
            let world = schedule.config_at(&t.system.config, round);
            probe_health(&t.system, &world, C64::ZERO, &probes, round)
        })
        .collect();

    // Adaptive track, under live traffic.
    let live = launch(m)?;
    let adaptive = (|| -> Result<(Vec<StepReport>, u64), String> {
        let entry = live.entries.first().ok_or("no registered models")?.clone();
        let target = Target::Model(entry.wire_id());
        let view = MobilityDrift {
            base: t.system.config.clone(),
            schedule,
        };
        let mut ctl = AdaptController::new(entry.clone(), Box::new(view), probes.clone(), policy);
        // Every deployment the entry ever serves, by epoch: the initial
        // one plus each accepted swap's.
        let mut deployments = vec![entry.current()];
        let mut client =
            TcpClient::connect_with(live.addr, ClientConfig::with_all(Duration::from_secs(5)))
                .map_err(|e| format!("adaptive connect: {e}"))?;
        let mut verified = 0u64;
        let mut reports = Vec::new();
        for round in 0..rounds {
            let report = ctl.step();
            if report.swap.is_some() {
                deployments.push(entry.current());
            }
            // Clean traffic straddling the swap boundary. The sample
            // space (3 000 000+) is disjoint from every other scenario's.
            let requests = (0..ADAPT_REQUESTS_PER_ROUND).map(|k| {
                let sample = 3_000_000 + round * ADAPT_REQUESTS_PER_ROUND + k;
                (sample, chaos_clean_input(sample, symbols))
            });
            verified += serveload::send(&mut client, target, requests, None, |sample, x, reply| {
                serveload::verify(&deployments, sample, x, reply)
            })
            .map_err(|e| format!("adaptive {e}"))?;
            reports.push(report);
        }
        Ok((reports, verified))
    })();
    live.shutdown()?;
    let (reports, verified) = adaptive?;

    let swaps: Vec<&SwapRecord> = reports.iter().filter_map(|r| r.swap.as_ref()).collect();
    if swaps.is_empty() {
        return Err(format!(
            "the walk never triggered a re-solve ({rounds} rounds at {} m/s, \
             residual ceiling {})",
            recipe.drift_mps, recipe.adapt_residual
        ));
    }

    // Headline acceptance, over the back half of the walk (the front
    // half is shared warm-up where neither track has drifted much).
    let back = (rounds / 2) as usize;
    let mean_acc = |readings: &[f64]| readings.iter().sum::<f64>() / readings.len() as f64;
    let static_tail = mean_acc(
        &static_readings[back..]
            .iter()
            .map(|r| r.probe_accuracy)
            .collect::<Vec<f64>>(),
    );
    let adaptive_tail = mean_acc(
        &reports[back..]
            .iter()
            .map(|r| r.reading.probe_accuracy)
            .collect::<Vec<f64>>(),
    );
    if static_tail >= recipe.adapt_threshold {
        return Err(format!(
            "static deployment never decayed: back-half accuracy {static_tail} >= \
             threshold {} (walk too slow or too short to matter)",
            recipe.adapt_threshold
        ));
    }
    if adaptive_tail < recipe.adapt_threshold {
        return Err(format!(
            "adaptive deployment did not hold: back-half accuracy {adaptive_tail} < \
             threshold {}",
            recipe.adapt_threshold
        ));
    }

    // Timing: swap-install latency p99 and warm re-solve throughput
    // (scalar weights re-solved per second of solver wall time).
    let mut swap_us: Vec<f64> = swaps.iter().map(|s| s.swap_seconds * 1e6).collect();
    swap_us.sort_by(f64::total_cmp);
    let p99 = swap_us[((swap_us.len() - 1) as f64 * 0.99).ceil() as usize];
    let resolve_total: f64 = swaps.iter().map(|s| s.resolve_seconds).sum();
    let weights = t.system.net.weights.rows() * t.system.net.weights.cols();
    let weights_per_sec = (swaps.len() * weights) as f64 / resolve_total.max(f64::MIN_POSITIVE);

    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("rounds", num(rounds as f64)),
            kv(
                "accuracy",
                Json::Obj(vec![
                    kv("adaptive_tail_mean", num(adaptive_tail)),
                    kv("static_tail_mean", num(static_tail)),
                ]),
            ),
            kv(
                "trigger_rounds",
                Json::Arr(swaps.iter().map(|s| num(s.round as f64)).collect()),
            ),
            kv(
                "epochs",
                Json::Arr(swaps.iter().map(|s| num(s.epoch as f64)).collect()),
            ),
            kv(
                "static_final_residual",
                num(static_readings
                    .last()
                    .expect("rounds >= 1")
                    .channel_residual),
            ),
            kv(
                "adaptive_final_residual",
                num(reports
                    .last()
                    .expect("rounds >= 1")
                    .reading
                    .channel_residual),
            ),
            kv("verified_requests", num(verified as f64)),
            kv("request_errors", num(0.0)),
        ]),
        timing: Json::Obj(vec![
            kv("swap_latency_p99_us", num(p99)),
            kv("resolve_weights_per_sec", num(weights_per_sec)),
            kv("resolve_total_seconds", num(resolve_total)),
        ]),
    })
}

/// Equal-budget single-vs-stacked comparison: train ONE network on the
/// recipe's dataset, deploy it once on a single surface of `atom-budget`
/// atoms and once as a `layers`-deep cascade over the *same total
/// budget* (balanced L-th-root factorization), and score both over the
/// air. The digital model is identical by construction, so the entire
/// gap is realization quality: per-layer 2-bit lattices compose (phases
/// add, magnitudes multiply) and residual compensation gives every
/// weight L corrective solves instead of one. The scenario FAILS unless
/// the stack wins — this is the regression gate for the stacked path.
/// A third system trains the cascade itself (`train_stack` at L =
/// `layers`, same training config and budget) and is scored on the same
/// test set, so the gate also pins stacked training.
fn stacked_accuracy(recipe: &Recipe) -> Result<ScenarioOutcome, String> {
    if recipe.layers < 2 {
        return Err(format!(
            "stacked-accuracy needs layers >= 2, got {}",
            recipe.layers
        ));
    }
    let config = SystemConfig {
        seed: recipe.seed,
        environment: recipe.environment,
        snr_db: recipe.snr_db,
        ..SystemConfig::paper_default()
    };
    let (train, test) =
        generate(recipe.dataset, recipe.scale, recipe.seed).modulate(config.modulation);
    let tcfg = TrainConfig {
        epochs: recipe.epochs,
        seed: recipe.seed,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default());
    let net = TrainEngine::new(tcfg.clone()).train(&train);

    let single = MetaAiSystem::builder()
        .config(config.clone())
        .num_atoms(recipe.atom_budget)
        .deploy(net.clone());
    let stacked = MetaAiSystem::builder()
        .config(config.clone())
        .num_atoms(recipe.atom_budget)
        .layers(recipe.layers)
        .deploy(net);
    // The same cascade trained as a stack (`train_stack` at L = layers)
    // rather than factorized from the one-layer network.
    let trained_stacked = MetaAiSystem::builder()
        .config(config)
        .num_atoms(recipe.atom_budget)
        .layers(recipe.layers)
        .train_and_deploy(&train, &tcfg);

    let digital = single.digital_accuracy(&test);
    let single_ota = single.ota_accuracy(&test, &format!("scenario-{}-single", recipe.name));
    let stacked_ota = stacked.ota_accuracy(&test, &format!("scenario-{}-stacked", recipe.name));
    let trained_stacked_ota =
        trained_stacked.ota_accuracy(&test, &format!("scenario-{}-trained-stacked", recipe.name));
    let single_err = single.realization_error();
    let stacked_err = stacked.realization_error();
    if stacked_ota <= single_ota {
        return Err(format!(
            "stacked cascade must beat the single surface at an equal {}-atom budget: \
             stacked {:.4} <= single {:.4} (realization error {:.4} vs {:.4})",
            recipe.atom_budget, stacked_ota, single_ota, stacked_err, single_err
        ));
    }
    Ok(ScenarioOutcome {
        fixed: Json::Obj(vec![
            kv("layers", num(recipe.layers as f64)),
            kv("atom_budget", num(recipe.atom_budget as f64)),
            kv(
                "accuracy",
                Json::Obj(vec![
                    kv("digital", num(digital)),
                    kv("single_ota", num(single_ota)),
                    kv("stacked_ota", num(stacked_ota)),
                    kv("trained_stacked_ota", num(trained_stacked_ota)),
                ]),
            ),
            kv(
                "realization_error",
                Json::Obj(vec![
                    kv("single", num(single_err)),
                    kv("stacked", num(stacked_err)),
                ]),
            ),
            kv("test_samples", num(test.len() as f64)),
        ]),
        timing: Json::Obj(Vec::new()),
    })
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Whether a scenario needs trained tenants (everything except the
/// mobility sweep, which trains its own tracker via `exp_mobility`, and
/// the stacked comparison, which deploys its own pair of systems at a
/// custom atom budget).
fn needs_materialize(scenario: &str) -> bool {
    scenario != "mobility-sweep" && scenario != "stacked-accuracy"
}

/// Runs one scenario against a recipe. `m` may be `None` only for
/// scenarios that do not need materialized tenants.
pub fn run_scenario(
    recipe: &Recipe,
    m: Option<&Materialized>,
    scenario: &str,
) -> Result<ScenarioOutcome, String> {
    fn need<'a>(m: Option<&'a Materialized>, scenario: &str) -> Result<&'a Materialized, String> {
        m.ok_or_else(|| format!("scenario {scenario:?} needs materialized tenants"))
    }
    match scenario {
        "offline-accuracy" => offline_accuracy(need(m, scenario)?),
        "engine-throughput" => engine_throughput(need(m, scenario)?),
        "serve-load" => serve_load(need(m, scenario)?),
        "serve-chaos" => serve_chaos(need(m, scenario)?),
        "multi-tenant-mix" => multi_tenant_mix(need(m, scenario)?),
        "mobility-sweep" => mobility_sweep(recipe),
        "adaptive-mobility" => adaptive_mobility(need(m, scenario)?),
        "stacked-accuracy" => stacked_accuracy(recipe),
        other => Err(format!("unknown scenario {other:?}")),
    }
}

/// Runs every scenario a recipe names, materializing the tenants once
/// (and only if some scenario needs them). Each outcome's `timing`
/// subtree gets an `elapsed_seconds` entry appended by this runner.
pub fn run_recipe(recipe: &Recipe) -> Vec<(String, Result<ScenarioOutcome, String>)> {
    let materialized = recipe
        .scenarios
        .iter()
        .any(|s| needs_materialize(s))
        .then(|| materialize(recipe));
    recipe
        .scenarios
        .iter()
        .map(|scenario| {
            let started = Instant::now();
            let result = run_scenario(recipe, materialized.as_ref(), scenario).map(|mut o| {
                if let Json::Obj(pairs) = &mut o.timing {
                    pairs.push(kv("elapsed_seconds", num(started.elapsed().as_secs_f64())));
                }
                o
            });
            (scenario.clone(), result)
        })
        .collect()
}

/// The per-(recipe, scenario) result document.
pub fn result_json(recipe: &Recipe, scenario: &str, outcome: &ScenarioOutcome) -> Json {
    Json::Obj(vec![
        kv("recipe", Json::Str(recipe.name.clone())),
        kv("scenario", Json::Str(scenario.to_string())),
        kv("seed", num(recipe.seed as f64)),
        kv("fixed", outcome.fixed.clone()),
        kv("timing", outcome.timing.clone()),
    ])
}

/// A copy of `result` with every `timing` key removed (at any depth) —
/// the byte-identical comparison surface of the determinism contract.
pub fn strip_timing(result: &Json) -> Json {
    match result {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "timing")
                .map(|(k, v)| (k.clone(), strip_timing(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// One recipe's scenario results, for [`merged_json`].
pub struct RecipeRun {
    /// The recipe that ran.
    pub recipe: Recipe,
    /// `(scenario, outcome-or-error)` in recipe order.
    pub results: Vec<(String, Result<ScenarioOutcome, String>)>,
}

/// Merges recipe runs into the report layout `bench_gate` compares:
/// `{cores, scenarios: {<recipe>: {<scenario>: {...}}}}`, where `cores`
/// records the host for the `timing` subtrees. A merged report is itself
/// a valid baseline. Failed scenarios appear as `{"error": "..."}` so
/// the artifact records them; having no `fixed` subtree, they fail the
/// gate.
pub fn merged_json(cores: usize, runs: &[RecipeRun]) -> Json {
    let scenarios = runs
        .iter()
        .map(|run| {
            let per_scenario = run
                .results
                .iter()
                .map(|(scenario, result)| {
                    let body = match result {
                        Ok(outcome) => Json::Obj(vec![
                            kv("seed", num(run.recipe.seed as f64)),
                            kv("fixed", outcome.fixed.clone()),
                            kv("timing", outcome.timing.clone()),
                        ]),
                        Err(e) => Json::Obj(vec![kv("error", Json::Str(e.clone()))]),
                    };
                    (scenario.clone(), body)
                })
                .collect();
            (run.recipe.name.clone(), Json::Obj(per_scenario))
        })
        .collect();
    Json::Obj(vec![
        kv("cores", num(cores as f64)),
        kv("scenarios", Json::Obj(scenarios)),
    ])
}

/// Loads one `.recipe` file, prefixing errors with the path.
pub fn load_recipe_file(path: &std::path::Path) -> Result<Recipe, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    Recipe::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `*.recipe` file in a directory, sorted by file name so
/// the run order (and the merged report) is stable.
pub fn load_recipe_dir(dir: &std::path::Path) -> Result<Vec<Recipe>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "recipe"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no *.recipe files", dir.display()));
    }
    paths.iter().map(|p| load_recipe_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name = t\nscenario = offline-accuracy\n";

    #[test]
    fn minimal_recipe_parses_with_defaults() {
        let r = Recipe::parse(MINIMAL).expect("parse");
        assert_eq!(r.name, "t");
        assert_eq!(r.scenarios, vec!["offline-accuracy"]);
        assert_eq!(r.seed, DEFAULT_SEED);
        assert_eq!(r.dataset, DatasetId::Afhq);
        assert_eq!(r.policy, OverflowPolicy::Shed);
    }

    #[test]
    fn unknown_keys_fail_with_their_line_number() {
        let text = "name = t\n\n# comment\nscenario = serve-load\nbogus-key = 1\n";
        let err = Recipe::parse(text).expect_err("unknown key");
        assert_eq!(err.line, 5);
        assert!(err.message.contains("bogus-key"), "{}", err.message);
    }

    #[test]
    fn duplicate_scalar_keys_fail_with_their_line_number() {
        let text = "name = t\nscenario = serve-load\nseed = 1\nseed = 2\n";
        let err = Recipe::parse(text).expect_err("duplicate");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("duplicate"), "{}", err.message);
    }

    #[test]
    fn unknown_scenarios_and_malformed_values_are_rejected() {
        let err = Recipe::parse("name = t\nscenario = nope\n").expect_err("scenario");
        assert_eq!(err.line, 2);
        let err =
            Recipe::parse("name = t\nscenario = serve-load\nepochs = zero\n").expect_err("epochs");
        assert_eq!(err.line, 3);
        let err = Recipe::parse("name = t\nscenario = serve-load\nepochs = 0\n")
            .expect_err("epochs floor");
        assert_eq!(err.line, 3);
        let err = Recipe::parse("scenario = serve-load\n").expect_err("missing name");
        assert_eq!(err.line, 0);
    }

    #[test]
    fn scenario_lists_split_on_commas_and_reject_repeats() {
        let r = Recipe::parse("name = t\nscenario = serve-load, serve-chaos\n").expect("parse");
        assert_eq!(r.scenarios, vec!["serve-load", "serve-chaos"]);
        let err = Recipe::parse("name = t\nscenario = serve-load\nscenario = serve-load\n")
            .expect_err("repeat");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn tenants_and_interferer_and_speeds_parse() {
        let text = "name = t\nscenario = multi-tenant-mix\ntenant = mnist\ntenant = afhq\n\
                    interferer = R4\nspeeds-mps = 0.5, 4\n";
        let r = Recipe::parse(text).expect("parse");
        assert_eq!(r.tenants, vec![DatasetId::Mnist, DatasetId::Afhq]);
        assert_eq!(r.interferer, Some(InterferenceRegion::R4));
        assert_eq!(r.speeds_mps, vec![0.5, 4.0]);
    }

    #[test]
    fn render_round_trips_exactly() {
        let text = "name = round\nscenario = serve-chaos, mobility-sweep\ntenant = mnist\n\
                    seed = 9\nsnr-db = 17.5\nspeeds-mps = 0.5, 4\ninterferer = R2\npolicy = block\n";
        let r = Recipe::parse(text).expect("parse");
        let rendered = r.render();
        let reparsed = Recipe::parse(&rendered).expect("reparse");
        assert_eq!(r, reparsed);
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn strip_timing_removes_the_subtree_everywhere() {
        let doc = crate::gate::parse(
            r#"{"fixed": {"a": 1}, "timing": {"b": 2}, "nested": {"timing": [3]}}"#,
        )
        .expect("parse");
        let stripped = strip_timing(&doc);
        let flat = crate::gate::flatten(&stripped);
        assert!(flat.contains_key("fixed.a"));
        assert!(!flat.keys().any(|k| k.contains("timing")));
    }

    #[test]
    fn merged_json_has_the_bench_layout_and_records_errors() {
        let recipe = Recipe::parse(MINIMAL).expect("parse");
        let outcome = ScenarioOutcome {
            fixed: Json::Obj(vec![kv("accuracy", Json::Obj(vec![kv("ota", num(0.5))]))]),
            timing: Json::Obj(vec![kv("samples_per_sec", num(10.0))]),
        };
        let runs = [RecipeRun {
            recipe,
            results: vec![
                ("offline-accuracy".to_string(), Ok(outcome)),
                ("serve-load".to_string(), Err("boom".to_string())),
            ],
        }];
        let merged = merged_json(4, &runs);
        let flat = crate::gate::flatten(&merged);
        assert_eq!(flat.get("cores"), Some(&4.0));
        assert_eq!(
            flat.get("scenarios.t.offline-accuracy.fixed.accuracy.ota"),
            Some(&0.5)
        );
        let text = merged.render();
        assert!(text.contains("\"error\": \"boom\""));
    }

    #[test]
    fn mobility_sweep_runs_without_materialized_tenants() {
        let r = Recipe::parse("name = m\nscenario = mobility-sweep\nspeeds-mps = 1\nseed = 82\n")
            .expect("parse");
        let outcome = run_scenario(&r, None, "mobility-sweep").expect("mobility");
        let flat = crate::gate::flatten(&outcome.fixed);
        assert!(flat.contains_key("accuracy.speed_1"));
        assert_eq!(flat.get("speeds.0.speed_mps"), Some(&1.0));
    }
}
