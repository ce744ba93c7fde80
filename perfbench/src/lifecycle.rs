//! The model lifecycle: train, cold solve, two-layer stack solve, batch
//! over-the-air evaluation, and a warm re-solve plus hot swap at each
//! step of a receiver walk. The dataset, network, solver, simulator,
//! radio and core layers do this work; no socket is involved.
//!
//! The lifecycle workload alternates these rounds with short bursts of
//! in-process requests, at a fixed rate, to the deployment the walk has
//! reached; the serving workloads run a few rounds before and after
//! their window, so every workload reports every end-to-end metric.
//!
//! Stage metrics are medians over the run's quiet rounds.

use crate::loadgen::{Outcome, Schedule};
use crate::models::{self, train_config, Model};
use crate::report::{median, percentile, quiet_groups, quietest, say_quiet, stolen, Report};
use crate::serve::{self, Plan, ServeCounts, Tenant};
use crate::trace::{Tracer, ROOT};
use metaai::pipeline::{redeploy_warm, MetaAiSystem};
use metaai::SystemConfig;
use metaai_adapt::{probe_health, ProbeSet};
use metaai_datasets::DatasetId;
use metaai_math::rng::SimRng;
use metaai_math::C64;
use metaai_mts::solver::SolverScratch;
use metaai_nn::engine::TrainEngine;
use metaai_rf::geometry::Point3;
use metaai_serve::{ModelEntry, Server};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Over-the-air accuracy of the MNIST network on its 800-sample test set
/// under label [`EVAL_LABEL`]: 679 correct. A pure function of the
/// program, so any change to it is a change in the program's output.
pub const RECORDED_OTA_ACCURACY: f64 = 679.0 / 800.0;
/// Label of the accuracy evaluation's RNG stream.
pub const EVAL_LABEL: &str = "perfbench";
/// Epochs per timed training call.
const TRAIN_EPOCHS_PER_CALL: usize = 2;
/// Accuracy evaluations per round (each is only ~20 ms).
const EVALS_PER_ROUND: usize = 4;
/// Samples in the adaptation probe set.
const PROBE_SAMPLES: usize = 32;
/// Rounds the lifecycle workload runs at least.
const MIN_ROUNDS: u64 = 3;
/// Request rate of the bursts between rounds.
const REQUEST_RATE_HZ: f64 = 1_000.0;
/// Unmeasured and measured length of each burst.
const BURST_WARMUP_S: f64 = 0.05;
const BURST_S: f64 = 0.5;

/// The receiver walk: offsets, in metres along x and y, of the corners of
/// a 0.3 m square with one corner at the default receiver position (the
/// repo's own mobility walk moves 0.3 m per round too). Each round walks
/// once around it, so every run re-solves over the same set of steps
/// however many rounds it has time for; the workload seed only picks the
/// corner the walk starts from.
pub const WALK: [(f64, f64); 4] = [(0.0, 0.0), (0.3, 0.0), (0.3, 0.3), (0.0, 0.3)];

/// What the lifecycle rounds measured.
#[derive(Default)]
pub struct Rounds {
    pub rounds: u64,
    pub operations: u64,
    pub failed: u64,
    /// Share of the vCPUs' time the hypervisor stole during each round.
    pub steal: Vec<f64>,
    pub train_samples_per_s: Vec<f64>,
    pub deploy_s: Vec<f64>,
    pub stack_deploy_s: Vec<f64>,
    pub eval_samples_per_s: Vec<f64>,
    pub accuracy: Vec<f64>,
}

impl Rounds {
    /// Adds the stage end-to-end metrics, over the quiet rounds
    /// ([`quiet_groups`]). Every stage runs the same number of times in
    /// each round.
    pub fn metrics(&self, report: &mut Report) {
        let (keep, share) = quiet_groups(&self.steal);
        let quiet = |v: &[f64]| -> Vec<f64> {
            let per_round = (v.len() / keep.len().max(1)).max(1);
            v.iter()
                .enumerate()
                .filter(|(i, _)| keep.get(i / per_round).copied().unwrap_or(true))
                .map(|(_, &x)| x)
                .collect()
        };
        let kept = keep.iter().filter(|&&k| k).count();
        say_quiet("lifecycle rounds", share, keep.len(), kept, keep.len());
        let mut push = |name: &str, unit: &'static str, v: &[f64]| {
            let v = quiet(v);
            report.push(name, median(&v), unit, v.len())
        };
        push("train_samples_per_s", "1/s", &self.train_samples_per_s);
        push("deploy_s", "s", &self.deploy_s);
        push("stack_deploy_s", "s", &self.stack_deploy_s);
        push("eval_samples_per_s", "1/s", &self.eval_samples_per_s);
        push("ota_accuracy", "share", &self.accuracy);
    }

    /// Books the rounds' operations and failures and checks the accuracy.
    pub fn book(&self, report: &mut Report) {
        if let Some(a) = self.accuracy.iter().find(|&&a| a != RECORDED_OTA_ACCURACY) {
            report.problem(format!(
                "ota_accuracy {a} differs from the recorded {RECORDED_OTA_ACCURACY}"
            ));
        }
        report.attempted += self.operations;
        report.failed += self.failed;
    }
}

/// The lifecycle of one deployed network, advanced a round at a time so
/// callers can spread rounds over their run.
pub struct Lifecycle<'a> {
    model: &'a Model,
    base: SystemConfig,
    /// Where each re-solved deployment is swapped in.
    entry: Arc<ModelEntry>,
    probes: ProbeSet,
    seed: u64,
    /// The [`WALK`] corner the receiver stands at now, and the one the
    /// walk starts from.
    corner: usize,
    start: usize,
    /// Walk steps taken, the move to the start corner included.
    steps: u64,
    current: Arc<MetaAiSystem>,
    /// The epoch `current` was swapped in as.
    epoch: u64,
    scratch: SolverScratch,
    pub out: Rounds,
}

impl<'a> Lifecycle<'a> {
    /// `entry` must serve `model`'s deployment and be swapped by nothing
    /// else. The workload seed drives the walk and the training shuffles.
    pub fn new(model: &'a Model, entry: Arc<ModelEntry>, seed: u64) -> Self {
        Lifecycle {
            model,
            base: SystemConfig::paper_default(),
            entry,
            probes: ProbeSet::from_dataset(&model.test, PROBE_SAMPLES, seed),
            seed,
            corner: 0,
            start: SimRng::derive(seed, "perfbench-walk").below(WALK.len()),
            steps: 0,
            current: model.system.clone(),
            epoch: 0,
            scratch: SolverScratch::new(),
            out: Rounds::default(),
        }
    }

    /// One round: train, cold deploy, stack deploy, evaluate, then once
    /// around the receiver walk (the first round first moves, unmeasured,
    /// to the walk's start corner). Returns the re-solved deployment and the
    /// epoch it was swapped in as.
    pub fn round(&mut self, tracer: &Tracer, report: &mut Report) -> (Arc<MetaAiSystem>, u64) {
        let round = self.out.rounds;
        let (_, steal) = stolen(|| {
            tracer.time("lifecycle.round", ROOT, |parent| {
                let (model, base, out) = (self.model, &self.base, &mut self.out);
                let net = &model.system.net;
                let tcfg = train_config(TRAIN_EPOCHS_PER_CALL, self.seed.wrapping_add(round));
                let (_, d) = tracer.time_calls(
                    "nn.train_epoch",
                    parent,
                    TRAIN_EPOCHS_PER_CALL as u32,
                    |_| black_box(TrainEngine::new(tcfg).train(&model.train)),
                );
                let samples = (TRAIN_EPOCHS_PER_CALL * model.train.len()) as f64;
                out.train_samples_per_s.push(samples / d.as_secs_f64());

                let (cold, d) = tracer.time("core.deploy", parent, |_| {
                    MetaAiSystem::builder()
                        .config(base.clone())
                        .deploy(net.clone())
                });
                out.deploy_s.push(d.as_secs_f64());

                let (_, d) = tracer.time("sim.stack_deploy", parent, |_| {
                    black_box(
                        MetaAiSystem::builder()
                            .config(base.clone())
                            .layers(2)
                            .deploy(net.clone()),
                    )
                });
                out.stack_deploy_s.push(d.as_secs_f64());

                for _ in 0..EVALS_PER_ROUND {
                    let (acc, d) = tracer.time("core.eval", parent, |_| {
                        cold.ota_accuracy(&model.test, EVAL_LABEL)
                    });
                    out.eval_samples_per_s
                        .push(model.test.len() as f64 / d.as_secs_f64());
                    out.accuracy.push(acc);
                }
                if self.corner != self.start {
                    self.step(tracer, parent, self.start, report);
                    self.out.operations += 2;
                }
                for _ in 0..WALK.len() {
                    self.step(tracer, parent, (self.corner + 1) % WALK.len(), report);
                }
            })
        });
        self.out.steal.push(steal);
        self.out.rounds += 1;
        // train, deploy, stack deploy, evaluations, then a probe and a
        // re-solve + swap per walk step
        self.out.operations += 3 + EVALS_PER_ROUND as u64 + 2 * WALK.len() as u64;
        (self.current.clone(), self.epoch)
    }

    /// One step of the receiver walk, to `corner`: probe the deployed
    /// schedule over the moved channel, then re-solve warm and swap.
    fn step(&mut self, tracer: &Tracer, parent: u64, corner: usize, report: &mut Report) {
        let index = self.steps;
        self.steps += 1;
        self.corner = corner;
        let world = walk_config(&self.base, corner);
        let current = &self.current;
        tracer.time("adapt.probe", parent, |_| {
            black_box(probe_health(
                current,
                &world,
                C64::ZERO,
                &self.probes,
                index,
            ))
        });
        let (scratch, entry) = (&mut self.scratch, &self.entry);
        let expected = entry.current().epoch + 1;
        let ((next, epoch), _) = tracer.time("adapt.resolve", parent, |resolve| {
            let (next, _) = tracer.time("core.redeploy_warm", resolve, |_| {
                Arc::new(redeploy_warm(current, &world, C64::ZERO, scratch))
            });
            let (epoch, _) = tracer.time("serve.swap", resolve, |_| entry.swap(next.clone()));
            (next, epoch)
        });
        if epoch != Ok(expected) {
            self.out.failed += 1;
            report.problem(format!(
                "walk step {index}: swap returned {epoch:?}, expected epoch {expected}"
            ));
        }
        self.current = next;
        self.epoch = epoch.unwrap_or(0);
    }
}

/// `base` with the receiver moved to [`WALK`] corner `corner`.
pub fn walk_config(base: &SystemConfig, corner: usize) -> SystemConfig {
    let (dx, dy) = WALK[corner];
    SystemConfig {
        rx: Point3::new(base.rx.x + dx, base.rx.y + dy, base.rx.z),
        ..base.clone()
    }
}

/// The lifecycle workload: set-up (the MNIST network, and an in-process
/// server for it), then lifecycle rounds for the window, each followed
/// by a burst of requests to the deployment the round swapped in.
pub fn run(args: &crate::Args, tracer: &Tracer, report: &mut Report) {
    let run_start = Instant::now();
    let (model, setup_s) = models::set_up(tracer, run_start, |parent| {
        models::build(tracer, parent, DatasetId::Mnist, "mnist")
    });
    let (server, start) = tracer.time("serve.start", ROOT, |_| {
        Server::builder()
            .config(serve::serve_config())
            .model(model.name, model.system.clone())
            .start()
    });
    report.push(
        "setup_s",
        setup_s + start.as_secs_f64(),
        "s",
        models::SETUP_REPS,
    );
    let clients = [server.client_for(model.name).expect("registered model")];
    let registry = server.registry().clone();
    let mut tenant = Tenant::new(model, Vec::new(), args.seed);
    let model = tenant.model.clone();
    let plan = Plan::new(args.seed, 1);
    let burst = Schedule::new(REQUEST_RATE_HZ, BURST_WARMUP_S, BURST_S);
    let mut lifecycle = Lifecycle::new(&model, registry.entries()[0].clone(), args.seed);
    let window = Duration::from_secs(args.seconds);
    let counts = ServeCounts::now();
    let mut depths = Vec::new();
    let mut bursts = 0;

    // One measured phase. In a traced run the bursts alternate between
    // untraced and traced, so drift hits both alike: their ratio is the
    // tracing overhead.
    let mut phase = || {
        let (mut plain, mut traced) = (Outcome::default(), Outcome::default());
        let started = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || started.elapsed() < window {
            let (system, epoch) = lifecycle.round(tracer, report);
            rounds += 1;
            tenant.cycle = vec![system];
            tenant.epochs = vec![(epoch, 0)];
            let on = args.trace && bursts % 2 == 1;
            tracer.set_on(on);
            let mut burst_depths = Vec::new();
            let out = serve::inproc_probe(
                &clients,
                &registry,
                std::slice::from_ref(&tenant),
                &plan,
                bursts * burst.total(),
                burst,
                &mut burst_depths,
                tracer,
                report,
            );
            tracer.set_on(args.trace);
            bursts += 1;
            if on {
                depths.extend(burst_depths);
                traced.merge(out);
            } else {
                plain.merge(out);
            }
        }
        serve::book(&plain, report);
        if args.trace {
            serve::book(&traced, report);
        }
        let rounds = std::mem::take(&mut lifecycle.out);
        rounds.book(report);
        (rounds, plain, traced)
    };
    let (rounds, plain, traced) = if args.trace {
        phase()
    } else {
        quietest(run_start, phase)
    };
    server.shutdown();
    rounds.metrics(report);
    serve::window_metrics(&plain, report);
    if args.trace {
        counts.report_since(&depths, &traced, report);
        serve::overhead(
            serve::costs(&plain),
            serve::costs(&traced),
            traced.latency_us.len(),
            report,
        );
        report.push(
            "serve.inproc_p50_us",
            percentile(&traced.latency_us, 50.0),
            "us",
            traced.latency_us.len(),
        );
        crate::layers::probe(tracer, &model, None, args.seed, report);
    }
}

/// Whether two score vectors are bitwise identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
