//! The end-to-end MetaAI system: train → map → realize → infer over the
//! air.

use crate::config::SystemConfig;
use crate::engine::OtaEngine;
use crate::mapper::WeightSchedule;
use crate::ota::{signal_power, OtaConditions};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CPlanes, CVec, C64};
use metaai_mts::array::MtsArray;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::TrainConfig;
use metaai_rf::environment::{EnvChannel, Environment};
use metaai_rf::noise::Awgn;
use metaai_sim::{
    realize_stack, StackGeometry, StackSchedule, StackSolver, StackSpec, StackWeights,
};
use metaai_telemetry::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Pipeline-stage instruments, registered once with the global registry.
struct PipelineMetrics {
    deploys: Counter,
    accuracy_runs: Counter,
    deploy_seconds: Histogram,
    accuracy_seconds: Histogram,
}

fn metrics() -> &'static PipelineMetrics {
    static METRICS: OnceLock<PipelineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        PipelineMetrics {
            deploys: r.counter("metaai.core.pipeline.deploys"),
            accuracy_runs: r.counter("metaai.core.pipeline.accuracy_runs"),
            deploy_seconds: r.latency_histogram("metaai.core.pipeline.deploy_seconds"),
            accuracy_seconds: r.latency_histogram("metaai.core.pipeline.accuracy_seconds"),
        }
    })
}

/// Registers the pipeline's instruments with the global telemetry registry.
pub fn register_metrics() {
    let _ = metrics();
}

/// A deployed L-layer cascade ([`metaai_sim`]): the stack's geometry,
/// the per-layer weight factors, and the per-layer 2-bit programme
/// realizing them. L = 1 is the paper's single surface.
pub struct StackDeployment {
    /// Per-layer surfaces and hop links, in path order.
    pub geometry: StackGeometry,
    /// Layer factors `W_l` (their entrywise product is the system's
    /// effective network; for L = 1 the factor is the network itself).
    pub weights: StackWeights,
    /// Per-layer 2-bit schedules (residual-compensated for l ≥ 1).
    pub schedule: StackSchedule,
}

/// A fully deployed MetaAI installation: the trained digital network, the
/// metasurface programme realizing it, and the physical channels the
/// receiver will see.
pub struct MetaAiSystem {
    /// Deployment configuration.
    pub config: SystemConfig,
    /// Read-only copy of layer 0's surface (for L = 1, the paper's one
    /// surface, with fabrication phase errors drawn from the config's
    /// seed). The deployed surfaces live in `stack`; writing here changes
    /// nothing that is realized.
    pub array: MtsArray,
    /// The digitally trained network ("simulation model").
    pub net: ComplexLnn,
    /// Layer 0's solved schedule, shared with `stack.schedule.layers[0]`
    /// (read-only).
    pub schedule: Arc<WeightSchedule>,
    /// Realized physical channels `H[r, i]` ("prototype model").
    ///
    /// Prefer [`MetaAiSystem::set_channels`] for replacing the matrix: the
    /// system caches a split re/im copy of the channels for the fused
    /// scoring kernel, and `set_channels` keeps that cache coherent.
    pub channels: CMat,
    /// Receiver noise variance — a *fixed* thermal floor, anchored so the
    /// reference geometry sees `config.snr_db`. Redeployments keep the
    /// floor: moving the receiver changes signal power, not noise.
    pub noise_floor: f64,
    /// The deployed cascade behind `channels`: surfaces, factors and
    /// per-layer schedules, for every L.
    pub stack: StackDeployment,
    /// Column-major re/im planes of `channels`, split once at deployment
    /// so per-request engines ([`MetaAiSystem::engine`]) skip the split.
    planes: CPlanes,
}

/// Fabrication-noise stream of layer `l` in an L-layer stack. The
/// paper's single surface keeps its own stream name.
fn noise_stream(layers: usize, l: usize) -> String {
    if layers == 1 {
        "atom-phase-noise".to_owned()
    } else {
        format!("atom-phase-noise-layer-{l}")
    }
}

/// Staged construction of a [`MetaAiSystem`].
///
/// Collects deployment options and finishes with [`deploy`](Self::deploy)
/// for an already-trained network or
/// [`train_and_deploy`](Self::train_and_deploy) to train first.
///
/// ```no_run
/// # use metaai::{MetaAiSystem, SystemConfig};
/// # let net: metaai_nn::complex_lnn::ComplexLnn = unimplemented!();
/// let system = MetaAiSystem::builder()
///     .config(SystemConfig::paper_default())
///     .num_atoms(256)
///     .deploy(net);
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    num_atoms: usize,
    layers: usize,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            config: SystemConfig::paper_default(),
            num_atoms: 256,
            layers: 1,
        }
    }
}

impl SystemBuilder {
    /// Sets the deployment configuration (default: paper defaults).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the meta-atom count (default 256; the Fig 7 sweep varies it).
    /// For stacked deployments this is the *total* budget, split
    /// near-equally across the layers — stacked-vs-single comparisons
    /// stay at equal hardware cost.
    pub fn num_atoms(mut self, num_atoms: usize) -> Self {
        assert!(num_atoms > 0, "an array needs at least one atom");
        self.num_atoms = num_atoms;
        self
    }

    /// Sets the number of cascaded metasurface layers (default 1).
    ///
    /// `layers(1)` is the paper's single-surface deployment. With
    /// `layers ≥ 2`, [`deploy`](Self::deploy) factorizes the network
    /// across the stack and [`train_and_deploy`](Self::train_and_deploy)
    /// trains that many product-parameterized factors.
    pub fn layers(mut self, layers: usize) -> Self {
        assert!(layers >= 1, "a deployment needs at least one layer");
        self.layers = layers;
        self
    }

    /// Deploys an already-trained network: splits it into
    /// [`layers`](Self::layers) balanced factors
    /// ([`StackWeights::from_effective`]; one layer keeps the network
    /// itself) and deploys them as [`deploy_stack`](Self::deploy_stack)
    /// does. `system.net` is `net`.
    pub fn deploy(self, net: ComplexLnn) -> MetaAiSystem {
        let weights = StackWeights::from_effective(&net.weights, self.layers);
        self.deploy_weights(net, weights)
    }

    /// Deploys layer factors as an L-layer cascade: lays the surfaces out
    /// along the Tx → Rx path with seeded fabrication phase noise (stream
    /// `atom-phase-noise` for L = 1, `atom-phase-noise-layer-{l}`
    /// otherwise), solves every layer's 2-bit programme, realizes the
    /// composed channel, and anchors the receiver noise floor at the
    /// configured SNR. The scoring engine downstream sees a [`CMat`] for
    /// every L.
    pub fn deploy_stack(self, weights: StackWeights) -> MetaAiSystem {
        let net = weights.effective_net();
        self.deploy_weights(net, weights)
    }

    fn deploy_weights(self, net: ComplexLnn, weights: StackWeights) -> MetaAiSystem {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.deploy_seconds.span());
        if let Some(m) = tele {
            m.deploys.inc();
        }
        let config = self.config;
        let layers = weights.num_layers();
        let spec = StackSpec::new(
            config.prototype,
            config.freq_hz,
            config.tx,
            config.rx,
            config.mts_center,
            layers,
            self.num_atoms,
        );
        let mut geometry = StackGeometry::build(&spec);
        if config.atom_phase_noise > 0.0 {
            for (l, surface) in geometry.surfaces.iter_mut().enumerate() {
                let mut rng = SimRng::derive(config.seed, &noise_stream(layers, l));
                surface.inject_phase_noise(config.atom_phase_noise, &mut rng);
            }
        }
        let schedule = StackSolver::new(&geometry, config.kappa).solve(&weights.factors, C64::ZERO);
        let channels = realize_stack(&geometry, &schedule);
        let noise_floor = signal_power(&channels) / metaai_math::stats::from_db(config.snr_db);
        let stack = StackDeployment {
            geometry,
            weights,
            schedule,
        };
        MetaAiSystem::assemble(config, net, stack, channels, noise_floor)
    }

    /// Trains one factor per [`layer`](Self::layers) on `train` (through
    /// the batched, deterministic [`TrainEngine::train_stack`]; one layer
    /// is the paper's complex LNN) and deploys them.
    pub fn train_and_deploy(self, train: &ComplexDataset, tcfg: &TrainConfig) -> MetaAiSystem {
        let (weights, _) = TrainEngine::new(tcfg.clone()).train_stack(train, self.layers);
        self.deploy_stack(weights)
    }
}

impl MetaAiSystem {
    /// Starts a [`SystemBuilder`] — the primary way to construct a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// A system over `stack`, with the layer-0 mirrors and the plane
    /// cache derived from it.
    fn assemble(
        config: SystemConfig,
        net: ComplexLnn,
        stack: StackDeployment,
        channels: CMat,
        noise_floor: f64,
    ) -> MetaAiSystem {
        let planes = CPlanes::from_cmat(&channels);
        MetaAiSystem {
            config,
            array: stack.geometry.surfaces[0].clone(),
            net,
            schedule: Arc::clone(&stack.schedule.layers[0]),
            channels,
            noise_floor,
            stack,
            planes,
        }
    }

    /// Accuracy of the digital network ("simulation" column of Table 1).
    pub fn digital_accuracy(&self, test: &ComplexDataset) -> f64 {
        metaai_nn::train::evaluate(&self.net, test)
    }

    /// Default channel conditions for this deployment: the configured
    /// environment realized over `n_symbols`, AWGN anchored to the MTS
    /// signal power at the configured SNR, perfect coarse sync.
    pub fn default_conditions(&self, n_symbols: usize, rng: &mut SimRng) -> OtaConditions {
        let env = Environment::paper_default(
            self.config.environment,
            self.config.tx,
            self.config.rx,
            self.config.freq_hz,
        );
        let sync_shift = match self.config.sync_error {
            Some(model) => model.sample_residual_symbols(self.config.symbol_rate, rng),
            None => 0,
        };
        OtaConditions {
            env: EnvChannel::from_environment(&env, n_symbols, rng),
            mts_factor: vec![1.0; n_symbols],
            awgn: Awgn {
                variance: self.noise_floor,
            },
            sync_shift,
            cancellation: self.config.cancellation,
        }
    }

    /// Replaces the realized channels, rebuilding the cached SoA planes
    /// the fused scoring kernel reads.
    ///
    /// `channels` is a public field for read access and compatibility, but
    /// assigning it directly leaves the plane cache stale — fault-injection
    /// and ablation harnesses that swap the matrix must come through here.
    pub fn set_channels(&mut self, channels: CMat) {
        self.channels = channels;
        self.planes = CPlanes::from_cmat(&self.channels);
    }

    /// The inference engine over this deployment's realized channels.
    ///
    /// Borrows the deployment-time SoA planes, so constructing an engine
    /// per request costs nothing. Debug builds verify the plane cache is
    /// coherent with [`MetaAiSystem::channels`].
    pub fn engine(&self) -> OtaEngine<'_> {
        OtaEngine::with_planes(&self.channels, &self.planes)
    }

    /// Scores one input exactly as position `index` of an offline batch
    /// on stream `stream` — [`OtaEngine::score_indexed`] under the
    /// config's seed and [`default_conditions`](Self::default_conditions)
    /// — writing the class scores into `out` (reused scratch) and
    /// returning the argmax.
    ///
    /// This is the serving hot path: a live request carrying a sample
    /// index scores bitwise-identically to
    /// `engine().batch_map(inputs, config.seed, stream, |rng| default_conditions(n, rng), ..)`
    /// at that index, independent of how requests were batched or which
    /// worker picked them up.
    pub fn score_indexed(&self, x: &CVec, stream: u64, index: u64, out: &mut Vec<f64>) -> usize {
        self.engine().score_indexed(
            x,
            self.config.seed,
            stream,
            index,
            |rng| self.default_conditions(x.len(), rng),
            out,
        )
    }

    /// Over-the-air predictions for every test input under per-sample
    /// conditions built by `make_cond` (called with the sample's derived
    /// RNG), on the stream `ota-{label}`. Batched through
    /// [`OtaEngine::batch_map`]; fully deterministic in `label`,
    /// independent of the rayon worker count.
    pub fn ota_predictions<F>(&self, test: &ComplexDataset, label: &str, make_cond: F) -> Vec<usize>
    where
        F: Fn(&mut SimRng) -> OtaConditions + Sync,
    {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.accuracy_seconds.span());
        if let Some(m) = tele {
            m.accuracy_runs.inc();
        }
        let stream = SimRng::stream_id(&format!("ota-{label}"));
        self.engine().batch_map(
            &test.inputs,
            self.config.seed,
            stream,
            make_cond,
            metaai_math::stats::argmax,
        )
    }

    /// Over-the-air accuracy: the share of
    /// [`ota_predictions`](Self::ota_predictions) that match the labels.
    pub fn ota_accuracy_with<F>(&self, test: &ComplexDataset, label: &str, make_cond: F) -> f64
    where
        F: Fn(&mut SimRng) -> OtaConditions + Sync,
    {
        if test.is_empty() {
            return 0.0;
        }
        let predictions = self.ota_predictions(test, label, make_cond);
        let correct = predictions
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / test.len() as f64
    }

    /// Over-the-air accuracy under the deployment's default conditions
    /// ("prototype" column of Table 1).
    pub fn ota_accuracy(&self, test: &ComplexDataset, label: &str) -> f64 {
        let n = test.input_len();
        self.ota_accuracy_with(test, label, |rng| self.default_conditions(n, rng))
    }

    /// Relative weight-realization error of the deployed programme
    /// ([`StackSchedule::relative_error`]): the single surface's RMS
    /// residual rule for L = 1, the composed cascade error otherwise.
    pub fn realization_error(&self) -> f64 {
        self.stack
            .schedule
            .relative_error(&self.stack.weights.factors)
    }

    /// Number of cascaded metasurface layers (1 for the paper's
    /// single-surface deployment).
    pub fn num_layers(&self) -> usize {
        self.stack.geometry.num_layers()
    }

    /// Re-realizes the *deployed* programme against `world`'s geometry —
    /// what the receiver would actually see if the endpoints moved while
    /// the schedule stayed frozen: every hop is re-linked and the layers
    /// compose. Health probes use this to measure drift.
    pub fn realize_live(&self, world: &SystemConfig) -> CMat {
        let live = self
            .stack
            .geometry
            .relinked(world.tx, world.rx, world.freq_hz);
        realize_stack(&live, &self.stack.schedule)
    }

    /// Sticks a random `fraction` of the atoms of every surface at random
    /// states (drawn from `rng` in layer order), then re-realizes the
    /// channels. The faults stay with the hardware: [`redeploy_warm`] and
    /// [`realize_live`](Self::realize_live) see them.
    pub fn inject_stuck_faults(&mut self, fraction: f64, rng: &mut SimRng) {
        for surface in &mut self.stack.geometry.surfaces {
            surface.inject_stuck_faults(fraction, rng);
        }
        self.array = self.stack.geometry.surfaces[0].clone();
        self.set_channels(realize_stack(&self.stack.geometry, &self.stack.schedule));
    }
}

/// Re-deploys an existing system at a new geometry (e.g. after the
/// receiver moved): rebuilds the surfaces from the config's seed and
/// re-solves the same layer factors cold, with the same layer count and
/// atom budget. The receiver's thermal noise floor is *kept* from the
/// original deployment — moving devices changes signal power, not the
/// noise.
pub fn redeploy(system: &MetaAiSystem, config: &SystemConfig) -> MetaAiSystem {
    let mut moved = MetaAiSystem::builder()
        .config(config.clone())
        .num_atoms(system.stack.geometry.total_atoms())
        .deploy_weights(system.net.clone(), system.stack.weights.clone());
    moved.noise_floor = system.noise_floor;
    moved
}

/// [`redeploy`], warm-started for the online-adaptation loop: re-links
/// every hop against `config`'s endpoints and re-solves every layer by
/// seeding each per-weight descent with the *current* codes
/// ([`StackSolver::resolve_warm`]), instead of rebuilding from scratch.
///
/// Differences from a cold [`redeploy`], all deliberate:
///
/// * the **surfaces are cloned**, not rebuilt — the physical hardware
///   (atom counts, fabrication phase noise, stuck atoms) does not change
///   because the receiver moved;
/// * the solve is **sequential** on the caller's thread, reusing
///   `scratch` across rounds — no rayon fan-out competing with serving
///   workers, and the result is independent of worker count;
/// * the **noise floor is kept**, like `redeploy`.
///
/// The warm schedule may differ code-for-code from what a cold redeploy
/// would find (coordinate descent from a different initialization can
/// settle in a different quantization-noise-level minimum); it is held to
/// the same realization-error standard, not bitwise equality.
///
/// `h_env_offset` is the Eqn-8 quasi-static environmental component the
/// re-solve compensates (e.g. a sampled
/// [`Interferer::scatter_gain`](metaai_rf::interference::Interferer::scatter_gain)),
/// in normalized units; pass [`C64::ZERO`] when the environment is clean.
pub fn redeploy_warm(
    system: &MetaAiSystem,
    config: &SystemConfig,
    h_env_offset: C64,
    scratch: &mut metaai_mts::solver::SolverScratch,
) -> MetaAiSystem {
    let tele = metaai_telemetry::enabled().then(metrics);
    let _span = tele.map(|m| m.deploy_seconds.span());
    if let Some(m) = tele {
        m.deploys.inc();
    }
    let stack = &system.stack;
    let geometry = stack
        .geometry
        .relinked(config.tx, config.rx, config.freq_hz);
    let schedule = StackSolver::new(&geometry, config.kappa).resolve_warm(
        &stack.weights.factors,
        h_env_offset,
        &stack.schedule.layers,
        scratch,
    );
    let channels = realize_stack(&geometry, &schedule);
    let stack = StackDeployment {
        geometry,
        weights: stack.weights.clone(),
        schedule,
    };
    MetaAiSystem::assemble(
        config.clone(),
        system.net.clone(),
        stack,
        channels,
        system.noise_floor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_nn::train::toy_problem;

    fn quick_system() -> (MetaAiSystem, ComplexDataset) {
        let train = toy_problem(3, 32, 40, 0.35, 50, 150);
        let test = toy_problem(3, 32, 20, 0.35, 50, 250);
        let cfg = SystemConfig::paper_default();
        let tcfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        }
        .with_augmentation(metaai_nn::augment::Augmentation::cdfa_default());
        let sys = MetaAiSystem::builder()
            .config(cfg)
            .train_and_deploy(&train, &tcfg);
        (sys, test)
    }

    #[test]
    fn digital_and_ota_accuracy_are_close() {
        let (sys, test) = quick_system();
        let digital = sys.digital_accuracy(&test);
        let ota = sys.ota_accuracy(&test, "t1");
        assert!(digital > 0.9, "digital accuracy {digital}");
        // The prototype gap in the paper is ≤ 7 points.
        assert!(
            ota > digital - 0.15,
            "OTA {ota} too far below digital {digital}"
        );
    }

    #[test]
    fn realization_error_is_small() {
        let (sys, _) = quick_system();
        let rel = sys.realization_error();
        assert!(rel < 0.05, "realization error {rel}");
    }

    #[test]
    fn ota_is_deterministic_per_label() {
        let (sys, test) = quick_system();
        let a = sys.ota_accuracy(&test, "same");
        let b = sys.ota_accuracy(&test, "same");
        assert_eq!(a, b);
    }

    #[test]
    fn ideal_conditions_match_digital_decisions() {
        let (sys, test) = quick_system();
        let n = test.input_len();
        let ideal = sys.ota_accuracy_with(&test, "ideal", |_| OtaConditions::ideal(n));
        let digital = sys.digital_accuracy(&test);
        // Quantization at M=256 is tiny: ideal OTA ≈ digital.
        assert!(
            (ideal - digital).abs() < 0.08,
            "ideal OTA {ideal} vs digital {digital}"
        );
    }

    #[test]
    fn score_indexed_matches_the_batch_path_bitwise() {
        let (sys, test) = quick_system();
        let n = test.input_len();
        let stream = metaai_math::rng::SimRng::stream_id("serve-test");
        let batched = sys.engine().batch_map(
            &test.inputs,
            sys.config.seed,
            stream,
            |rng| sys.default_conditions(n, rng),
            |scores| (metaai_math::stats::argmax(scores), scores.to_vec()),
        );
        let mut scratch = Vec::new();
        for (i, x) in test.inputs.iter().enumerate() {
            let predicted = sys.score_indexed(x, stream, i as u64, &mut scratch);
            assert_eq!(predicted, batched[i].0, "sample {i}");
            assert_eq!(scratch, batched[i].1, "sample {i} scores");
        }
    }

    #[test]
    fn redeploy_preserves_the_network() {
        let (sys, test) = quick_system();
        let moved = SystemConfig::paper_default().with_rx_at(5.0, 10.0);
        let sys2 = redeploy(&sys, &moved);
        assert_eq!(sys2.net.weights, sys.net.weights);
        // New geometry → new channels, but still functional.
        let ota = sys2.ota_accuracy(&test, "moved");
        assert!(ota > 0.6, "accuracy after redeploy {ota}");
    }

    #[test]
    fn a_stacked_deployment_serves_like_a_single_surface() {
        let train = toy_problem(3, 32, 40, 0.35, 50, 150);
        let test = toy_problem(3, 32, 20, 0.35, 50, 250);
        let tcfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        }
        .with_augmentation(metaai_nn::augment::Augmentation::cdfa_default());
        let sys = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .num_atoms(256)
            .layers(2)
            .train_and_deploy(&train, &tcfg);
        assert_eq!(sys.num_layers(), 2);
        assert_eq!(sys.stack.geometry.total_atoms(), 256);
        assert!(sys.digital_accuracy(&test) > 0.9);
        let rel = sys.realization_error();
        assert!(rel < 0.1, "composed realization error {rel}");
        let ota = sys.ota_accuracy(&test, "stacked");
        assert!(ota > 0.7, "stacked OTA accuracy {ota}");
        // The deployed cascade re-realized at its own geometry IS the
        // deployed channel matrix.
        let live = sys.realize_live(&sys.config);
        assert_eq!(live, sys.channels);
    }

    #[test]
    fn one_layer_is_exactly_the_single_surface_deployment() {
        // The paper's single surface is a one-layer stack: its factor is
        // the trained network itself, its surface carries the
        // `atom-phase-noise` stream, the layer-0 mirrors share the
        // stack's schedule, and deploying the factor as a stack realizes
        // the same channels.
        let train = toy_problem(3, 32, 30, 0.35, 50, 151);
        let tcfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let config = SystemConfig::paper_default();
        let one = MetaAiSystem::builder()
            .config(config.clone())
            .train_and_deploy(&train, &tcfg);
        assert_eq!(one.num_layers(), 1);
        assert_eq!(one.stack.weights.factors, vec![one.net.weights.clone()]);
        assert!(Arc::ptr_eq(&one.schedule, &one.stack.schedule.layers[0]));

        let mut surface = MtsArray::paper_prototype(config.prototype, config.mts_center);
        let mut rng = SimRng::derive(config.seed, "atom-phase-noise");
        surface.inject_phase_noise(config.atom_phase_noise, &mut rng);
        for ((a, b), c) in one
            .array
            .atoms
            .iter()
            .zip(&surface.atoms)
            .zip(&one.stack.geometry.surfaces[0].atoms)
        {
            assert_eq!(a.phase_error.to_bits(), b.phase_error.to_bits());
            assert_eq!(a.phase_error.to_bits(), c.phase_error.to_bits());
        }

        let stacked = MetaAiSystem::builder()
            .config(config)
            .deploy_stack(one.stack.weights.clone());
        assert_eq!(stacked.schedule.packed(), one.schedule.packed());
        assert_eq!(stacked.channels, one.channels);
    }

    #[test]
    fn redeploy_keeps_the_layer_count_and_atom_budget() {
        let train = toy_problem(3, 16, 24, 0.35, 50, 153);
        let tcfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let sys = MetaAiSystem::builder()
            .layers(2)
            .num_atoms(64)
            .train_and_deploy(&train, &tcfg);
        let moved = SystemConfig::paper_default().with_rx_at(3.0, 43.0);
        let cold = redeploy(&sys, &moved);
        assert_eq!(cold.num_layers(), 2);
        assert_eq!(cold.stack.geometry.total_atoms(), 64);
        assert_eq!(cold.stack.weights, sys.stack.weights);
        assert_eq!(cold.noise_floor, sys.noise_floor);
        // Redeploying in place rebuilds the very same system.
        let same = redeploy(&sys, &sys.config);
        assert_eq!(same.channels, sys.channels);
    }

    #[test]
    fn stuck_faults_hit_every_layer_and_survive_a_warm_redeploy() {
        let train = toy_problem(3, 16, 24, 0.35, 50, 154);
        let tcfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut sys = MetaAiSystem::builder()
            .layers(2)
            .num_atoms(128)
            .train_and_deploy(&train, &tcfg);
        let healthy = sys.channels.clone();
        sys.inject_stuck_faults(0.3, &mut SimRng::seed_from_u64(3));
        assert_ne!(sys.channels, healthy);
        assert_eq!(sys.realize_live(&sys.config), sys.channels);
        let stuck = |s: &MetaAiSystem| -> Vec<Vec<bool>> {
            s.stack
                .geometry
                .surfaces
                .iter()
                .map(|a| a.atoms.iter().map(|x| x.stuck_at.is_some()).collect())
                .collect()
        };
        let faults = stuck(&sys);
        assert!(faults.iter().all(|layer| layer.contains(&true)));
        assert_eq!(
            sys.array.atoms.len(),
            sys.stack.geometry.surfaces[0].atoms.len()
        );

        let moved = SystemConfig::paper_default().with_rx_at(3.0, 43.0);
        let mut scratch = metaai_mts::solver::SolverScratch::new();
        let warm = redeploy_warm(&sys, &moved, C64::ZERO, &mut scratch);
        assert_eq!(stuck(&warm), faults);
        assert_eq!(warm.realize_live(&moved), warm.channels);
    }

    #[test]
    fn stacked_warm_redeploy_keeps_surfaces_and_quality() {
        let train = toy_problem(3, 32, 40, 0.35, 50, 152);
        let test = toy_problem(3, 32, 20, 0.35, 50, 252);
        let tcfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        }
        .with_augmentation(metaai_nn::augment::Augmentation::cdfa_default());
        let sys = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .layers(2)
            .train_and_deploy(&train, &tcfg);
        let moved = SystemConfig::paper_default().with_rx_at(3.0, 43.0);
        let mut scratch = metaai_mts::solver::SolverScratch::new();
        let warm = redeploy_warm(&sys, &moved, C64::ZERO, &mut scratch);

        let (ws, ss) = (&warm.stack, &sys.stack);
        for (a, b) in ws.geometry.surfaces.iter().zip(&ss.geometry.surfaces) {
            assert_eq!(a.num_atoms(), b.num_atoms());
            for (x, y) in a.atoms.iter().zip(&b.atoms) {
                assert_eq!(x.phase_error, y.phase_error);
            }
        }
        assert_eq!(warm.noise_floor, sys.noise_floor);
        assert!(
            warm.realization_error() < sys.realization_error() + 0.05,
            "warm stacked redeploy error {}",
            warm.realization_error()
        );
        let ota = warm.ota_accuracy(&test, "stacked-warm");
        assert!(ota > 0.6, "accuracy after stacked warm redeploy {ota}");

        let again = redeploy_warm(&sys, &moved, C64::ZERO, &mut scratch);
        assert_eq!(warm.channels, again.channels);
    }

    #[test]
    fn warm_redeploy_keeps_the_surface_and_matches_cold_quality() {
        let (sys, test) = quick_system();
        let moved = SystemConfig::paper_default().with_rx_at(3.0, 43.0);
        let mut scratch = metaai_mts::solver::SolverScratch::new();
        let warm = redeploy_warm(&sys, &moved, C64::ZERO, &mut scratch);
        let cold = redeploy(&sys, &moved);

        // The physical surface is untouched: same atoms, same fabrication
        // noise — a receiver move cannot re-manufacture the array.
        assert_eq!(warm.array.num_atoms(), sys.array.num_atoms());
        for (a, b) in warm.array.atoms.iter().zip(&sys.array.atoms) {
            assert_eq!(a.phase_error, b.phase_error);
        }
        assert_eq!(warm.net.weights, sys.net.weights);
        assert_eq!(warm.noise_floor, sys.noise_floor);

        // Warm and cold may settle in different quantization-level minima,
        // but realize the weights equally faithfully and serve equally well.
        assert!(
            warm.realization_error() < cold.realization_error() + 0.01,
            "warm {} vs cold {}",
            warm.realization_error(),
            cold.realization_error()
        );
        let ota = warm.ota_accuracy(&test, "warm-moved");
        assert!(ota > 0.6, "accuracy after warm redeploy {ota}");

        // And the warm path is deterministic across scratch reuse.
        let again = redeploy_warm(&sys, &moved, C64::ZERO, &mut scratch);
        assert_eq!(warm.schedule.packed(), again.schedule.packed());
        assert_eq!(warm.channels, again.channels);
    }
}
