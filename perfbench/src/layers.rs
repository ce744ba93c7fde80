//! Per-layer probes of a traced run: the public calls each layer
//! offers, timed in isolation on the workload's deployed networks.
//! Deploys and re-solves are staged here call by call (array, mapper,
//! solve, realize), as `SystemBuilder::deploy` and `redeploy_warm` chain
//! them, so each stage gets its own span. Each staged result must equal
//! the program's own call bitwise, or the run fails: the stage figures
//! would otherwise time code the program no longer runs.

use crate::lifecycle::{same_bits, walk_config};
use crate::models::Model;
use crate::report::{median, Report};
use crate::trace::{Tracer, ROOT};
use metaai::mapper::WeightMapper;
use metaai::ota::realize_channels;
use metaai::pipeline::redeploy_warm;
use metaai::{MetaAiSystem, OtaEngine};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, C64};
use metaai_mts::array::MtsArray;
use metaai_mts::channel::MtsLink;
use metaai_mts::solver::SolverScratch;
use metaai_rf::environment::Environment;
use metaai_serve::wire::{Request, Response};
use metaai_sim::{realize_stack, StackGeometry, StackSolver, StackSpec, StackWeights};
use std::hint::black_box;

/// Repeats of each staged deploy, re-solve and stack solve.
const STAGED_REPS: usize = 3;
/// Spans per micro-probe; each covers a loop of calls.
const MICRO_SPANS: usize = 9;

/// Times `f` in [`MICRO_SPANS`] spans of `calls` calls each.
fn micro(tracer: &Tracer, name: &'static str, calls: u32, mut f: impl FnMut()) {
    for _ in 0..MICRO_SPANS {
        tracer.time_calls(name, ROOT, calls, |_| {
            for _ in 0..calls {
                f();
            }
        });
    }
}

/// Fails the run unless a staged result equals the program's own.
fn agree(staged: &CMat, program: &CMat, call: &str, report: &mut Report) {
    let bits = |m: &CMat| -> Vec<f64> { m.as_slice().iter().flat_map(|c| [c.re, c.im]).collect() };
    if !same_bits(&bits(staged), &bits(program)) {
        report.problem(format!("the staged calls no longer reproduce {call}"));
    }
}

/// Runs every per-layer probe and adds the per-layer metrics, along with
/// those read from spans recorded earlier in the run. `scalar` is a
/// tenant below the fused kernel's row threshold, if the workload has
/// one; otherwise the first three rows of the MNIST channels stand in.
pub fn probe(
    tracer: &Tracer,
    mnist: &Model,
    scalar: Option<&Model>,
    seed: u64,
    report: &mut Report,
) {
    let system = &mnist.system;
    let config = &system.config;
    let weights = &system.net.weights;

    // Cold solve, staged: array → mapper → map → realize.
    let sweeps = metaai_telemetry::global().counter("metaai.mts.solver.sweeps");
    let mut map_sweeps = Vec::new();
    for _ in 0..STAGED_REPS {
        tracer.time("core.deploy_staged", ROOT, |parent| {
            let mut array = MtsArray::with_atom_count(config.prototype, 256, config.mts_center);
            if config.atom_phase_noise > 0.0 {
                let mut rng = SimRng::derive(config.seed, "atom-phase-noise");
                array.inject_phase_noise(config.atom_phase_noise, &mut rng);
            }
            let mapper = WeightMapper::new(config, &array);
            let before = sweeps.value();
            let (schedule, _) = tracer.time("core.mapper.map", parent, |_| {
                mapper.map(weights, C64::ZERO)
            });
            map_sweeps.push((sweeps.value() - before) as f64);
            let (channels, _) = tracer.time("core.ota.realize", parent, |_| {
                realize_channels(&schedule, &mapper.link, &array)
            });
            agree(&channels, &system.channels, "SystemBuilder::deploy", report);
        });
    }

    // Warm re-solve, staged, to the first step of the receiver walk.
    let moved = walk_config(config, 1);
    let warm = redeploy_warm(system, &moved, C64::ZERO, &mut SolverScratch::new());
    let mut scratch = SolverScratch::new();
    for _ in 0..STAGED_REPS {
        tracer.time("core.resolve_staged", ROOT, |parent| {
            let link = MtsLink::new(&system.array, moved.tx, moved.rx, moved.freq_hz);
            let mapper = WeightMapper::from_link(link, moved.kappa);
            let (schedule, _) = tracer.time("core.mapper.remap", parent, |_| {
                mapper.remap(weights, C64::ZERO, &system.schedule, &mut scratch)
            });
            let (channels, _) = tracer.time("core.ota.realize", parent, |_| {
                realize_channels(&schedule, &mapper.link, &system.array)
            });
            agree(&channels, &warm.channels, "redeploy_warm", report);
        });
    }

    // Two-layer stack, staged: geometry → solve → realize.
    let stacked = MetaAiSystem::builder()
        .config(config.clone())
        .layers(2)
        .deploy(system.net.clone());
    let factors = StackWeights::from_effective(weights, 2);
    for _ in 0..STAGED_REPS {
        tracer.time("sim.stack_staged", ROOT, |parent| {
            let spec = StackSpec::new(
                config.prototype,
                config.freq_hz,
                config.tx,
                config.rx,
                config.mts_center,
                2,
                256,
            );
            let mut geometry = StackGeometry::build(&spec);
            if config.atom_phase_noise > 0.0 {
                for (l, surface) in geometry.surfaces.iter_mut().enumerate() {
                    let label = format!("atom-phase-noise-layer-{l}");
                    let mut rng = SimRng::derive(config.seed, &label);
                    surface.inject_phase_noise(config.atom_phase_noise, &mut rng);
                }
            }
            let solver = StackSolver::new(&geometry, config.kappa);
            let (schedule, _) = tracer.time("sim.stack_solve", parent, |_| {
                solver.solve(&factors.factors, C64::ZERO)
            });
            let (channels, _) = tracer.time("sim.realize_stack", parent, |_| {
                realize_stack(&geometry, &schedule)
            });
            agree(&channels, &stacked.channels, "a .layers(2) deploy", report);
        });
    }

    // Per-request calls of the serving path.
    let x = &mnist.test.inputs[0];
    let n = x.len();
    micro(tracer, "rf.environment", 10_000, || {
        black_box(Environment::paper_default(
            config.environment,
            config.tx,
            config.rx,
            config.freq_hz,
        ));
    });
    let mut rng = SimRng::derive(seed, "perfbench-layers");
    micro(tracer, "core.conditions", 200, || {
        black_box(system.default_conditions(n, &mut rng));
    });
    let cond = system.default_conditions(n, &mut rng);
    let mut scores = Vec::new();
    micro(tracer, "core.engine.kernel_fused", 200, || {
        system.engine().scores_into(x, &cond, &mut rng, &mut scores);
        black_box(&scores);
    });
    let three_rows;
    let (scalar_channels, scalar_x, scalar_system): (&CMat, _, &MetaAiSystem) = match scalar {
        Some(m) => (&m.system.channels, &m.test.inputs[0], &m.system),
        None => {
            three_rows = CMat::from_fn(3, n, |r, c| system.channels.row(r)[c]);
            (&three_rows, x, system)
        }
    };
    let scalar_cond = scalar_system.default_conditions(scalar_x.len(), &mut rng);
    let scalar_engine = OtaEngine::new(scalar_channels);
    micro(tracer, "core.engine.kernel_scalar", 200, || {
        scalar_engine.scores_into(scalar_x, &scalar_cond, &mut rng, &mut scores);
        black_box(&scores);
    });
    let mut index = 0;
    micro(tracer, "core.score", 200, || {
        index += 1;
        black_box(system.score_indexed(x, 1, index, &mut scores));
    });
    let payload = Request::InferModel {
        model: 0,
        id: 1,
        sample_index: 1,
        deadline_us: 0,
        input: x.as_slice().to_vec(),
    }
    .encode();
    micro(tracer, "serve.wire.decode", 200, || {
        black_box(Request::decode(&payload).expect("a valid frame"));
    });
    let reply = Response::Score {
        id: 1,
        epoch: 1,
        predicted: 0,
        scores: vec![0.5; system.engine().num_outputs()],
    };
    micro(tracer, "serve.wire.encode", 2000, || {
        black_box(reply.encode());
    });

    // Every span name the run recorded, as per-layer medians.
    let ms = |name: &str| {
        tracer
            .per_call_s(name)
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<_>>()
    };
    let us = |name: &str| {
        tracer
            .per_call_s(name)
            .iter()
            .map(|s| s * 1e6)
            .collect::<Vec<_>>()
    };
    let mut push = |metric: &str, unit: &'static str, v: Vec<f64>| {
        report.push(metric, median(&v), unit, v.len())
    };
    push("datasets.generate_ms", "ms", ms("datasets.generate"));
    push("nn.train_epoch_ms", "ms", ms("nn.train_epoch"));
    push("core.mapper.map_ms", "ms", ms("core.mapper.map"));
    push("core.mapper.remap_ms", "ms", ms("core.mapper.remap"));
    push("mts.solver.sweeps", "count", map_sweeps);
    push("core.ota.realize_ms", "ms", ms("core.ota.realize"));
    push("sim.stack_solve_ms", "ms", ms("sim.stack_solve"));
    push("sim.realize_stack_ms", "ms", ms("sim.realize_stack"));
    push("rf.environment_us", "us", us("rf.environment"));
    push("core.conditions_us", "us", us("core.conditions"));
    push(
        "core.engine.kernel_fused_us",
        "us",
        us("core.engine.kernel_fused"),
    );
    push(
        "core.engine.kernel_scalar_us",
        "us",
        us("core.engine.kernel_scalar"),
    );
    push("core.score_us", "us", us("core.score"));
    push("core.eval_ms", "ms", ms("core.eval"));
    push("adapt.probe_ms", "ms", ms("adapt.probe"));
    push("adapt.resolve_ms", "ms", ms("adapt.resolve"));
    push("serve.wire.decode_us", "us", us("serve.wire.decode"));
    push("serve.wire.encode_us", "us", us("serve.wire.encode"));
    push("serve.swap_us", "us", us("serve.swap"));
}
