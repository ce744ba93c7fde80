//! Determinism and equivalence contracts for the stacked-cascade path.
//!
//! Stacked training (`TrainEngine::train_stack`) draws every layer's
//! initialization from its own counter-derived stream
//! (`train-stack-layer-{l}`) and reduces gradients in fixed sub-chunk
//! order, so the factors must be bitwise independent of the rayon worker
//! count and reproducible across runs. The per-layer
//! 2-bit solves are independent per weight, so the solved programmes
//! carry the same contract. And a one-layer stack is the paper's single
//! surface exactly — same codes, same achieved sums, same realized
//! channels.

use metaai::config::SystemConfig;
use metaai::mapper::WeightMapper;
use metaai::pipeline::MetaAiSystem;
use metaai_math::rng::SimRng;
use metaai_math::{CMat, C64};
use metaai_mts::channel::MtsLink;
use metaai_nn::augment::Augmentation;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::{toy_problem, TrainConfig};
use metaai_sim::{StackGeometry, StackSolver, StackSpec, StackWeights};

mod common;
use common::with_workers;

/// `(re, im)` bit patterns of every factor entry, layer-major — equality
/// means bitwise equality.
fn fingerprint(weights: &StackWeights) -> Vec<(u64, u64)> {
    weights
        .factors
        .iter()
        .flat_map(|f| {
            f.as_slice()
                .iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
        })
        .collect()
}

fn training_setup() -> (metaai_nn::data::ComplexDataset, TrainConfig) {
    // Big enough to span several gradient sub-chunks and a partial tail.
    let data = toy_problem(4, 24, 21, 0.3, 31, 131);
    let cfg = TrainConfig {
        epochs: 3,
        batch: 27,
        seed: 5,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default());
    (data, cfg)
}

#[test]
fn stack_training_is_worker_count_independent() {
    let (data, cfg) = training_setup();
    let engine = TrainEngine::new(cfg);
    let run = || fingerprint(&engine.train_stack(&data, 3).0);
    let default_threads = run();
    let single = with_workers(1, run);
    let four = with_workers(4, run);
    assert_eq!(default_threads, single, "1 worker changed the factors");
    assert_eq!(default_threads, four, "4 workers changed the factors");
}

#[test]
fn stack_training_is_deterministic_across_runs_and_seeded() {
    let (data, cfg) = training_setup();
    let other = TrainConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    let engine = TrainEngine::new(cfg);
    let a = engine.train_stack(&data, 2).0;
    let b = engine.train_stack(&data, 2).0;
    assert_eq!(fingerprint(&a), fingerprint(&b));

    let c = TrainEngine::new(other).train_stack(&data, 2).0;
    assert_ne!(
        fingerprint(&a),
        fingerprint(&c),
        "adjacent seeds produced identical stacks"
    );
}

fn solver_setup() -> (StackGeometry, Vec<CMat>) {
    let config = SystemConfig::paper_default();
    let geom = StackGeometry::build(&StackSpec::new(
        config.prototype,
        config.freq_hz,
        config.tx,
        config.rx,
        config.mts_center,
        2,
        96,
    ));
    let mut rng = SimRng::derive(9, "stacked-solver-test");
    let w = CMat::from_fn(4, 24, |_, _| rng.complex_gaussian(1.0));
    (geom, StackWeights::from_effective(&w, 2).factors)
}

#[test]
fn stack_solving_is_worker_count_independent() {
    let (geom, factors) = solver_setup();
    let solver = StackSolver::new(&geom, 0.9);
    let run = || {
        let s = solver.solve(&factors, C64::ZERO);
        s.layers
            .iter()
            .map(|l| l.packed().clone())
            .collect::<Vec<_>>()
    };
    let default_threads = run();
    let single = with_workers(1, run);
    let four = with_workers(4, run);
    assert_eq!(default_threads, single, "1 worker changed the codes");
    assert_eq!(default_threads, four, "4 workers changed the codes");
}

/// A one-layer stack IS the single-surface solve: same σ, same targets,
/// same greedy descent — codes and achieved sums must match the
/// [`WeightMapper`] bitwise on the same geometry.
#[test]
fn a_one_layer_stack_solve_matches_the_single_surface_mapper() {
    let config = SystemConfig::paper_default();
    let geom = StackGeometry::build(&StackSpec::new(
        config.prototype,
        config.freq_hz,
        config.tx,
        config.rx,
        config.mts_center,
        1,
        64,
    ));
    let mut rng = SimRng::derive(17, "stacked-mapper-test");
    let w = CMat::from_fn(3, 16, |_, _| rng.complex_gaussian(1.0));

    let solver = StackSolver::new(&geom, config.kappa);
    let stacked = solver.solve(std::slice::from_ref(&w), C64::ZERO);

    let link = MtsLink::new(&geom.surfaces[0], config.tx, config.rx, config.freq_hz);
    let mapper = WeightMapper::from_link(link, config.kappa);
    let schedule = mapper.map(&w, C64::ZERO);

    assert_eq!(stacked.layers[0].scale, schedule.scale);
    assert_eq!(stacked.layers[0].packed(), schedule.packed());
    assert_eq!(
        stacked.layers[0].achieved.as_slice(),
        schedule.achieved.as_slice()
    );
    assert_eq!(stacked.layers[0].rms_residual, schedule.rms_residual);
}

/// Deploying a one-factor stack through the pipeline realizes exactly
/// the channels of the plain single-surface deployment, at paper
/// defaults: both draw the surface's fabrication noise from the
/// `atom-phase-noise` stream.
#[test]
fn a_one_layer_stack_deployment_realizes_single_surface_channels() {
    let train = toy_problem(3, 16, 24, 0.35, 21, 121);
    let tcfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let config = SystemConfig::paper_default();
    assert!(config.atom_phase_noise > 0.0);
    let plain = MetaAiSystem::builder()
        .config(config.clone())
        .num_atoms(64)
        .train_and_deploy(&train, &tcfg);
    let stack = MetaAiSystem::builder()
        .config(config)
        .num_atoms(64)
        .deploy_stack(StackWeights {
            factors: vec![plain.net.weights.clone()],
        });
    assert_eq!(stack.num_layers(), 1);
    assert_eq!(stack.channels, plain.channels);
    assert_eq!(stack.schedule.packed(), plain.schedule.packed());
    assert_eq!(stack.noise_floor.to_bits(), plain.noise_floor.to_bits());
    assert_eq!(
        stack.realization_error().to_bits(),
        plain.realization_error().to_bits()
    );
}
