//! The end-to-end MetaAI system: train → map → realize → infer over the
//! air.

use crate::config::SystemConfig;
use crate::engine::{InferenceOutcome, InferenceRequest, OtaEngine};
use crate::mapper::{WeightMapper, WeightSchedule};
use crate::ota::{realize_channels, signal_power, OtaConditions};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CPlanes, CVec, C64};
use metaai_mts::array::MtsArray;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::TrainConfig;
use metaai_rf::environment::{EnvChannel, Environment};
use metaai_rf::noise::Awgn;
use metaai_sim::{realize_stack, train_stack, StackSchedule, StackSolver, StackSpec, StackWeights};
use metaai_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

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
/// the trained per-layer weight factors, and the per-layer 2-bit
/// programme realizing them.
pub struct StackDeployment {
    /// Per-layer surfaces and hop links, in path order.
    pub geometry: metaai_sim::StackGeometry,
    /// Trained layer factors `W_l` (their entrywise product is the
    /// system's effective network).
    pub weights: StackWeights,
    /// Per-layer residual-compensated 2-bit schedules.
    pub schedule: StackSchedule,
}

/// A fully deployed MetaAI installation: the trained digital network, the
/// metasurface programme realizing it, and the physical channels the
/// receiver will see.
pub struct MetaAiSystem {
    /// Deployment configuration.
    pub config: SystemConfig,
    /// The metasurface (with fabrication phase errors drawn from the
    /// config's seed).
    pub array: MtsArray,
    /// The digitally trained network ("simulation model").
    pub net: ComplexLnn,
    /// The solved metasurface schedule.
    pub schedule: WeightSchedule,
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
    /// The stacked cascade behind `channels`, when this deployment is an
    /// L-layer stack (`None` for the paper's single-surface deployment).
    /// For stacks, `array`/`schedule` describe layer 0 only —
    /// the composed truth lives here.
    pub stack: Option<StackDeployment>,
    /// Column-major re/im planes of `channels`, split once at deployment
    /// so per-request engines ([`MetaAiSystem::engine`]) skip the split.
    planes: CPlanes,
}

/// Layer 0 of a stack schedule viewed as a legacy single-surface
/// [`WeightSchedule`] — keeps `system.schedule` populated for code that
/// reports scale/residual without being stack-aware.
fn legacy_schedule(stack: &StackSchedule) -> WeightSchedule {
    let first = &stack.layers[0];
    WeightSchedule {
        codes: first.codes.clone(),
        achieved: first.achieved.clone(),
        scale: first.scale,
        rms_residual: first.rms_residual,
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
    /// `layers(1)` is exactly the paper's single-surface deployment —
    /// same RNG streams, same mapper, bitwise-identical system. With
    /// `layers ≥ 2`, [`deploy`](Self::deploy) factorizes the network
    /// across the stack and [`train_and_deploy`](Self::train_and_deploy)
    /// trains product-parameterized layer factors
    /// ([`metaai_sim::train_stack`]) instead.
    pub fn layers(mut self, layers: usize) -> Self {
        assert!(layers >= 1, "a deployment needs at least one layer");
        self.layers = layers;
        self
    }

    /// Deploys an already-trained network: builds the array (with seeded
    /// fabrication phase noise), solves the metasurface schedule, realizes
    /// the physical channels, and anchors the receiver noise floor at the
    /// configured SNR.
    pub fn deploy(self, net: ComplexLnn) -> MetaAiSystem {
        if self.layers > 1 {
            let weights = StackWeights::from_effective(&net.weights, self.layers);
            return self.deploy_stack(weights);
        }
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.deploy_seconds.span());
        if let Some(m) = tele {
            m.deploys.inc();
        }
        let config = self.config;
        let mut array =
            MtsArray::with_atom_count(config.prototype, self.num_atoms, config.mts_center);
        if config.atom_phase_noise > 0.0 {
            let mut rng = SimRng::derive(config.seed, "atom-phase-noise");
            array.inject_phase_noise(config.atom_phase_noise, &mut rng);
        }
        let mapper = WeightMapper::new(&config, &array);
        let schedule = mapper.map(&net.weights, C64::ZERO);
        let channels = realize_channels(&schedule, &mapper.link, &array);
        let noise_floor = signal_power(&channels) / metaai_math::stats::from_db(config.snr_db);
        let planes = CPlanes::from_cmat(&channels);
        MetaAiSystem {
            config,
            array,
            net,
            schedule,
            channels,
            noise_floor,
            stack: None,
            planes,
        }
    }

    /// Deploys pre-trained stack factors as an L-layer cascade: lays the
    /// surfaces out along the Tx → Rx path (injecting per-layer seeded
    /// fabrication noise from `atom-phase-noise-layer-{l}` streams),
    /// solves every layer's 2-bit programme with residual compensation,
    /// and realizes the composed effective channel — the scoring engine
    /// downstream sees a [`CMat`] exactly as in the single-surface case.
    pub fn deploy_stack(self, weights: StackWeights) -> MetaAiSystem {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.deploy_seconds.span());
        if let Some(m) = tele {
            m.deploys.inc();
        }
        let config = self.config;
        let spec = StackSpec::new(
            config.prototype,
            config.freq_hz,
            config.tx,
            config.rx,
            config.mts_center,
            weights.num_layers(),
            self.num_atoms,
        );
        let mut geometry = metaai_sim::StackGeometry::build(&spec);
        if config.atom_phase_noise > 0.0 {
            for (l, surface) in geometry.surfaces.iter_mut().enumerate() {
                let mut rng = SimRng::derive(config.seed, &format!("atom-phase-noise-layer-{l}"));
                surface.inject_phase_noise(config.atom_phase_noise, &mut rng);
            }
        }
        let solver = StackSolver::new(&geometry, config.kappa);
        let stack_schedule = solver.solve(&weights.factors, C64::ZERO);
        let channels = realize_stack(&geometry, &stack_schedule);
        let noise_floor = signal_power(&channels) / metaai_math::stats::from_db(config.snr_db);
        let planes = CPlanes::from_cmat(&channels);
        let net = weights.effective_net();
        let array = geometry.surfaces[0].clone();
        let schedule = legacy_schedule(&stack_schedule);
        MetaAiSystem {
            config,
            array,
            net,
            schedule,
            channels,
            noise_floor,
            stack: Some(StackDeployment {
                geometry,
                weights,
                schedule: stack_schedule,
            }),
            planes,
        }
    }

    /// Trains a network on `train` (through the batched, deterministic
    /// [`TrainEngine`]) and deploys it. With [`layers`](Self::layers) ≥ 2
    /// this trains product-parameterized stack factors instead
    /// ([`metaai_sim::train_stack`]) and deploys the cascade.
    pub fn train_and_deploy(self, train: &ComplexDataset, tcfg: &TrainConfig) -> MetaAiSystem {
        if self.layers > 1 {
            let weights = train_stack(train, self.layers, tcfg);
            self.deploy_stack(weights)
        } else {
            let net = TrainEngine::new(tcfg.clone()).train(train);
            self.deploy(net)
        }
    }
}

impl MetaAiSystem {
    /// Starts a [`SystemBuilder`] — the primary way to construct a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
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

    /// Runs one inference request (scores, prediction, optional trace).
    pub fn run(&self, request: &InferenceRequest<'_>, rng: &mut SimRng) -> InferenceOutcome {
        self.engine().run(request, rng)
    }

    /// Runs a batch of requests in parallel; request `i` draws from the
    /// counter-derived stream `(seed, stream, i)`.
    pub fn run_batch(
        &self,
        requests: &[InferenceRequest<'_>],
        stream: u64,
    ) -> Vec<InferenceOutcome> {
        self.engine().run_batch(requests, self.config.seed, stream)
    }

    /// Scores one input exactly as position `index` of an offline batch
    /// run on stream `stream` — same derived RNG, same default-conditions
    /// draw order — writing the class scores into `out` (reused scratch)
    /// and returning the argmax.
    ///
    /// This is the serving hot path: a live request carrying a sample
    /// index scores bitwise-identically to
    /// `engine().batch_with(inputs, config.seed, stream, |rng| default_conditions(n, rng))`
    /// at that index, independent of how requests were batched or which
    /// worker picked them up.
    pub fn score_indexed(&self, x: &CVec, stream: u64, index: u64, out: &mut Vec<f64>) -> usize {
        let mut rng = SimRng::derive_indexed(self.config.seed, stream, index);
        let cond = self.default_conditions(x.len(), &mut rng);
        self.engine().scores_into(x, &cond, &mut rng, out);
        metaai_math::stats::argmax(out)
    }

    /// Over-the-air accuracy under per-sample conditions built by
    /// `make_cond` (called with a sample-derived RNG). Batched through the
    /// engine; fully deterministic in `label`, independent of the rayon
    /// worker count.
    pub fn ota_accuracy_with<F>(&self, test: &ComplexDataset, label: &str, make_cond: F) -> f64
    where
        F: Fn(&mut SimRng) -> OtaConditions + Sync,
    {
        if test.is_empty() {
            return 0.0;
        }
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.accuracy_seconds.span());
        if let Some(m) = tele {
            m.accuracy_runs.inc();
        }
        let stream = SimRng::stream_id(&format!("ota-{label}"));
        let predictions =
            self.engine()
                .batch_predict_with(&test.inputs, self.config.seed, stream, make_cond);
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

    /// Relative weight-realization error of the deployed schedule. For a
    /// stacked deployment this is the *composed* cascade error
    /// ([`StackSchedule::relative_error`]), not any single layer's.
    pub fn realization_error(&self) -> f64 {
        match &self.stack {
            Some(stack) => stack.schedule.relative_error(&stack.weights.factors),
            None => self.schedule.relative_error(&self.net.weights),
        }
    }

    /// Number of cascaded metasurface layers (1 for the single-surface
    /// deployment).
    pub fn num_layers(&self) -> usize {
        self.stack.as_ref().map_or(1, |s| s.geometry.num_layers())
    }

    /// Re-realizes the *deployed* programme against `world`'s geometry —
    /// what the receiver would actually see if the endpoints moved while
    /// the schedule stayed frozen. Single-surface deployments rebuild the
    /// one live link; stacks re-link every hop and compose. Health probes
    /// use this to measure drift without being stack-aware.
    pub fn realize_live(&self, world: &SystemConfig) -> CMat {
        match &self.stack {
            Some(stack) => {
                let live = stack.geometry.relinked(world.tx, world.rx, world.freq_hz);
                realize_stack(&live, &stack.schedule)
            }
            None => {
                let link = metaai_mts::channel::MtsLink::new(
                    &self.array,
                    world.tx,
                    world.rx,
                    world.freq_hz,
                );
                realize_channels(&self.schedule, &link, &self.array)
            }
        }
    }
}

/// Re-deploys an existing system at a new geometry (e.g. after the
/// receiver moved): re-solves the schedule against the new link. The
/// receiver's thermal noise floor is *kept* from the original deployment —
/// moving devices changes signal power, not the noise.
pub fn redeploy(system: &MetaAiSystem, config: &SystemConfig) -> MetaAiSystem {
    let mut moved = MetaAiSystem::builder()
        .config(config.clone())
        .deploy(system.net.clone());
    moved.noise_floor = system.noise_floor;
    moved
}

/// [`redeploy`], warm-started for the online-adaptation loop: re-solves
/// the schedule against `config`'s geometry by seeding every per-weight
/// descent with the *current* schedule's codes
/// ([`WeightMapper::remap`]), instead of rebuilding from scratch.
///
/// Differences from a cold [`redeploy`], all deliberate:
///
/// * the **array is cloned**, not rebuilt — the physical surface (its
///   atom count and fabrication phase noise) does not change because the
///   receiver moved, whereas a cold redeploy re-injects noise and resets
///   any custom atom count to the builder default;
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
/// [`Interferer::scatter_gain`](metaai_rf::interference::Interferer::scatter_gain));
/// pass [`C64::ZERO`] when the environment is clean.
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
    if let Some(stack) = &system.stack {
        // Stacked analogue: same physical surfaces, every hop re-linked
        // against the moved endpoints, every layer warm-resolved from its
        // current codes (sequentially, with the caller's scratch).
        let geometry = stack
            .geometry
            .relinked(config.tx, config.rx, config.freq_hz);
        let solver = StackSolver::new(&geometry, config.kappa);
        let stack_schedule = solver.resolve_warm(
            &stack.weights.factors,
            h_env_offset,
            &stack.schedule,
            scratch,
        );
        let channels = realize_stack(&geometry, &stack_schedule);
        let planes = CPlanes::from_cmat(&channels);
        return MetaAiSystem {
            config: config.clone(),
            array: geometry.surfaces[0].clone(),
            net: system.net.clone(),
            schedule: legacy_schedule(&stack_schedule),
            channels,
            noise_floor: system.noise_floor,
            stack: Some(StackDeployment {
                geometry,
                weights: stack.weights.clone(),
                schedule: stack_schedule,
            }),
            planes,
        };
    }
    let array = system.array.clone();
    let link = metaai_mts::channel::MtsLink::new(&array, config.tx, config.rx, config.freq_hz);
    let mapper = WeightMapper::from_link(link, config.kappa);
    let schedule = mapper.remap(&system.net.weights, h_env_offset, &system.schedule, scratch);
    let channels = realize_channels(&schedule, &mapper.link, &array);
    let planes = CPlanes::from_cmat(&channels);
    MetaAiSystem {
        config: config.clone(),
        array,
        net: system.net.clone(),
        schedule,
        channels,
        noise_floor: system.noise_floor,
        stack: None,
        planes,
    }
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
        let batched = sys
            .engine()
            .batch_with(&test.inputs, sys.config.seed, stream, |rng| {
                sys.default_conditions(n, rng)
            });
        let mut scratch = Vec::new();
        for (i, x) in test.inputs.iter().enumerate() {
            let predicted = sys.score_indexed(x, stream, i as u64, &mut scratch);
            assert_eq!(predicted, batched[i].predicted, "sample {i}");
            assert_eq!(scratch, batched[i].scores, "sample {i} scores");
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
        let stack = sys.stack.as_ref().expect("a 2-layer system has a stack");
        assert_eq!(stack.geometry.total_atoms(), 256);
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
        let train = toy_problem(3, 32, 30, 0.35, 50, 151);
        let tcfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let plain = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .train_and_deploy(&train, &tcfg);
        let one = MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .layers(1)
            .train_and_deploy(&train, &tcfg);
        assert!(one.stack.is_none(), "layers(1) short-circuits the stack");
        assert_eq!(one.net.weights, plain.net.weights);
        assert_eq!(one.schedule.codes, plain.schedule.codes);
        assert_eq!(one.channels, plain.channels);
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

        let (ws, ss) = (warm.stack.as_ref().unwrap(), sys.stack.as_ref().unwrap());
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
        assert_eq!(warm.schedule.codes, again.schedule.codes);
        assert_eq!(warm.channels, again.channels);
    }
}
