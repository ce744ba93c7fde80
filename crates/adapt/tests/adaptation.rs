//! End-to-end behaviour of the adaptation loop against a live
//! deployment registry: triggers fire where the policy says, swaps land
//! as new epochs, and the whole closed loop is bitwise deterministic —
//! across runs *and* across rayon worker counts, because the warm
//! re-solve is deliberately sequential.

use metaai::mobility::DriftSchedule;
use metaai::{MetaAiSystem, SystemConfig};
use metaai_adapt::{
    AdaptController, Decision, MobilityDrift, ProbeSet, StaticChannel, StepReport, TriggerPolicy,
};
use metaai_math::rng::SimRng;
use metaai_mts::atom::PackedCodes;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::train::toy_problem;
use metaai_serve::{DeploymentRegistry, ModelEntry, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

const CLASSES: usize = 3;
const SYMBOLS: usize = 16;

fn tiny_system(seed: u64) -> Arc<MetaAiSystem> {
    let mut rng = SimRng::seed_from_u64(seed);
    let net = ComplexLnn::init(CLASSES, SYMBOLS, &mut rng);
    Arc::new(
        MetaAiSystem::builder()
            .config(SystemConfig::paper_default())
            .num_atoms(32)
            .deploy(net),
    )
}

fn entry_for(system: Arc<MetaAiSystem>) -> Arc<ModelEntry> {
    let registry = DeploymentRegistry::new(
        vec![("adapted".to_string(), system)],
        &ServeConfig::default(),
    );
    registry.entry("adapted").expect("registered").clone()
}

fn probes() -> ProbeSet {
    ProbeSet::from_dataset(&toy_problem(CLASSES, SYMBOLS, 4, 0.1, 7, 107), 8, 42)
}

/// Drift-only policy: the untrained tiny net's probe accuracy is noise,
/// so staleness is judged on the channel residual alone.
fn residual_policy() -> TriggerPolicy {
    TriggerPolicy {
        probe_accuracy_floor: 0.0,
        residual_ceiling: 0.2,
        hysteresis: 2,
        cooldown_rounds: 3,
    }
}

fn walking_controller(speed_mps: f64) -> (AdaptController, Arc<ModelEntry>) {
    let system = tiny_system(11);
    let entry = entry_for(system.clone());
    let view = MobilityDrift {
        base: system.config.clone(),
        schedule: DriftSchedule::paper_walk(speed_mps),
    };
    let ctl = AdaptController::new(entry.clone(), Box::new(view), probes(), residual_policy());
    (ctl, entry)
}

fn trigger_rounds(reports: &[StepReport]) -> Vec<(u64, u64)> {
    reports
        .iter()
        .filter_map(|r| r.swap.map(|s| (s.round, s.epoch)))
        .collect()
}

#[test]
fn a_static_world_never_triggers() {
    let system = tiny_system(5);
    let entry = entry_for(system.clone());
    let view = StaticChannel {
        base: system.config.clone(),
    };
    let mut ctl = AdaptController::new(entry.clone(), Box::new(view), probes(), residual_policy());
    for _ in 0..10 {
        let report = ctl.step();
        assert_eq!(report.decision, Decision::Healthy);
        assert!(report.reading.channel_residual < 1e-7);
        assert!(report.swap.is_none());
    }
    assert_eq!(entry.current().epoch, 1, "no drift, no swap");
}

#[test]
fn a_walking_receiver_triggers_resolves_and_swaps() {
    let (mut ctl, entry) = walking_controller(0.5);
    let entry_epoch_before = 1;
    let reports: Vec<StepReport> = (0..16).map(|_| ctl.step()).collect();
    let swaps = trigger_rounds(&reports);
    assert!(
        swaps.len() >= 2,
        "a 1.9°-per-round walk past a 0.2 residual ceiling must keep triggering"
    );
    // Epochs are assigned in order, starting after the initial deployment.
    for (i, &(_, epoch)) in swaps.iter().enumerate() {
        assert_eq!(epoch, entry_epoch_before + 1 + i as u64);
    }
    // Hysteresis: the first trigger needs two consecutive unhealthy
    // rounds, so it cannot land before round 1.
    assert!(swaps[0].0 >= 1);
    // Consecutive triggers respect the cooldown.
    for pair in swaps.windows(2) {
        assert!(
            pair[1].0 - pair[0].0 > 3,
            "cooldown violated: triggers at rounds {} and {}",
            pair[0].0,
            pair[1].0
        );
    }
    // The controller's view of "current" tracked the swaps: the last
    // deployed system is the very Arc the entry now serves, and the
    // entry's epoch is the last swap's.
    let deployment = entry.current();
    assert!(Arc::ptr_eq(&deployment.system, ctl.current()));
    assert_eq!(deployment.epoch, swaps.last().unwrap().1);
    // Every swap genuinely refreshed the deployment: the round right
    // after a swap reads a smaller residual than the round that
    // triggered it (the re-solve targeted the trigger round's geometry,
    // so the next round is only one drift step stale instead of many).
    for &(round, _) in &swaps {
        let at_trigger = reports[round as usize].reading.channel_residual;
        if let Some(next) = reports.get(round as usize + 1) {
            assert!(
                next.reading.channel_residual < at_trigger,
                "swap at round {round} did not reduce the residual: {} → {}",
                at_trigger,
                next.reading.channel_residual
            );
        }
    }
}

#[test]
fn adaptation_is_bitwise_deterministic_across_runs_and_worker_counts() {
    // Each run pins its worker count for every rayon-parallel stage it
    // starts (deploys, scoring), so the runs exercise genuinely different
    // worker counts — while the adaptation loop itself must not notice.
    let run = |threads: usize| -> (Vec<(u64, u64)>, PackedCodes, Vec<f64>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("worker pool");
        pool.install(|| {
            assert_eq!(rayon::current_num_threads(), threads);
            let (mut ctl, _entry) = walking_controller(1.5);
            let reports: Vec<StepReport> = (0..14).map(|_| ctl.step()).collect();
            let codes = ctl.current().schedule.packed().clone();
            let accuracies = reports.iter().map(|r| r.reading.probe_accuracy).collect();
            (trigger_rounds(&reports), codes, accuracies)
        })
    };

    let a = run(1);
    let b = run(4);
    let c = run(1);
    assert_eq!(
        a.0, b.0,
        "trigger rounds and epochs differ across worker counts"
    );
    assert_eq!(a.1, b.1, "re-solved schedules differ across worker counts");
    assert_eq!(a.2, b.2, "probe readings differ across worker counts");
    assert_eq!(a.0, c.0, "trigger rounds differ across identical runs");
    assert_eq!(a.1, c.1, "schedules differ across identical runs");
}

/// A view whose very first probe round panics — stands in for any bug
/// that kills the controller thread mid-round.
struct PanickingView;

impl metaai_adapt::ChannelView for PanickingView {
    fn config_at(&self, _round: u64) -> SystemConfig {
        panic!("injected probe failure")
    }
}

#[test]
fn a_dead_controller_thread_is_reported_not_repropagated() {
    // Regression: stop() used `join().expect("adaptation thread
    // panicked")`, so a controller that died rounds ago crashed the
    // *caller* at shutdown. The death must come back as a typed error
    // and be observable on the `metaai.adapt.controller_panics` counter.
    metaai_telemetry::set_enabled(true);
    metaai_adapt::register_metrics();
    let before = metaai_telemetry::global()
        .counter("metaai.adapt.controller_panics")
        .value();

    let system = tiny_system(13);
    let entry = entry_for(system);
    let ctl = AdaptController::new(entry, Box::new(PanickingView), probes(), residual_policy());
    let handle = ctl.spawn(Duration::from_millis(1));
    std::thread::sleep(Duration::from_millis(30));
    let err = match handle.stop() {
        Ok(_) => panic!("the controller thread should have died"),
        Err(e) => e,
    };
    assert!(
        err.message.contains("injected probe failure"),
        "panic payload lost: {err}"
    );

    let after = metaai_telemetry::global()
        .counter("metaai.adapt.controller_panics")
        .value();
    assert!(after > before, "controller death must land on the counter");
    metaai_telemetry::set_enabled(false);
}

#[test]
fn the_background_thread_steps_and_stops_cleanly() {
    let mut seen = 0;
    // Retry against scheduler jitter: the loop must make *some* rounds.
    for _ in 0..5 {
        let (ctl, _entry) = walking_controller(0.5);
        let handle = ctl.spawn(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(50));
        let (ctl, reports) = handle.stop().expect("controller thread healthy");
        assert_eq!(ctl.rounds(), reports.len() as u64);
        seen = reports.len();
        if seen > 0 {
            break;
        }
    }
    assert!(seen > 0, "background controller never stepped");
}
