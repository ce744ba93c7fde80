//! The mobility race (Sec 7 of the paper): receiver speed vs the
//! recalibration loop.
//!
//! The paper frames mobility support as "a race between the target's
//! speed and this recalibration latency". This experiment runs the race:
//! a receiver arcs around the metasurface at a given tangential speed
//! ([`DriftSchedule::paper_walk`]) while the `metaai-adapt` controller
//! probes the live channel, triggers on the solver residual and re-solves
//! the schedule. The controller runs on a one-model
//! [`DeploymentRegistry`]: no server, no threads. Reported per speed:
//! mean probe accuracy and the recalibration count.

use crate::common::{csv_write, pct, ExpContext};
use metaai::config::SystemConfig;
use metaai::mobility::{DriftSchedule, MobilityModel};
use metaai::pipeline::MetaAiSystem;
use metaai_adapt::{AdaptController, MobilityDrift, ProbeSet, StepReport, TriggerPolicy};
use metaai_datasets::DatasetId;
use metaai_mts::control::ControlModel;
use metaai_rf::geometry::rad_to_deg;
use metaai_serve::{DeploymentRegistry, ServeConfig};
use std::sync::Arc;

/// One mobility row.
#[derive(Clone, Debug)]
pub struct MobilityRow {
    /// Tangential receiver speed, m/s.
    pub speed_mps: f64,
    /// Whether the mobility model predicts this speed is trackable.
    pub predicted_trackable: bool,
    /// Recalibrations (re-solve + swap) the controller made.
    pub recalibrations: usize,
    /// Mean probe accuracy over the steps.
    pub accuracy: f64,
    /// The controller's per-step reports.
    pub steps: Vec<StepReport>,
}

/// Runs the race at each speed: the receiver sweeps a 50° arc at 3 m,
/// one controller step per 200 ms.
pub fn run(ctx: &ExpContext, speeds: &[f64]) -> Vec<MobilityRow> {
    let (train, test) = ctx.dataset(DatasetId::Afhq);
    let config = SystemConfig {
        seed: ctx.seed,
        ..SystemConfig::paper_default()
    };
    let system = Arc::new(
        MetaAiSystem::builder()
            .config(config.clone())
            .train_and_deploy(&train, &ctx.train_config()),
    );
    let control = ControlModel::default();
    // The solve time measured on this machine dominates recalibration;
    // 50 ms is representative (see `metaai deploy`).
    let mobility = MobilityModel::paper_prototype(0.05);
    let probes = ProbeSet::from_dataset(&test, 32, ctx.seed);
    // Label-free: trigger on the channel residual alone.
    let policy = TriggerPolicy {
        probe_accuracy_floor: 0.0,
        cooldown_rounds: 0,
        ..TriggerPolicy::default()
    };
    let arc_deg = 50.0;

    speeds
        .iter()
        .map(|&speed| {
            let schedule = DriftSchedule::paper_walk(speed);
            let deg_per_step = rad_to_deg(speed * schedule.step_s / schedule.radius_m);
            let rounds = ((arc_deg / deg_per_step).ceil() as usize).clamp(8, 60);
            let registry = DeploymentRegistry::new(
                vec![("mobility".into(), system.clone())],
                &ServeConfig::default(),
            );
            let view = MobilityDrift {
                base: config.clone(),
                schedule,
            };
            let mut ctl = AdaptController::new(
                registry.default_entry().clone(),
                Box::new(view),
                probes.clone(),
                policy,
            );
            let steps: Vec<StepReport> = (0..rounds).map(|_| ctl.step()).collect();
            MobilityRow {
                speed_mps: speed,
                predicted_trackable: mobility.supports(&control, schedule.radius_m, speed),
                recalibrations: steps.iter().filter(|s| s.swap.is_some()).count(),
                accuracy: steps.iter().map(|s| s.reading.probe_accuracy).sum::<f64>()
                    / steps.len() as f64,
                steps,
            }
        })
        .collect()
}

/// Prints and persists the mobility table.
pub fn report_all(ctx: &ExpContext) {
    let rows = run(ctx, &[0.5, 1.5, 4.0, 10.0]);
    println!("\nMobility: receiver speed vs the recalibration race");
    println!(
        "{:>10} {:>11} {:>8} {:>9}",
        "speed m/s", "trackable?", "acc", "recals"
    );
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:>10.1} {:>11} {:>8} {:>9}",
            r.speed_mps,
            if r.predicted_trackable { "yes" } else { "no" },
            pct(r.accuracy),
            r.recalibrations,
        );
        csv.push(format!(
            "{:.1},{},{},{}",
            r.speed_mps,
            r.predicted_trackable,
            pct(r.accuracy),
            r.recalibrations,
        ));
    }
    csv_write(
        &ctx.out_dir,
        "mobility",
        "speed_mps,predicted_trackable,accuracy,recalibrations",
        &csv,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_receivers_force_more_recalibration_per_step() {
        let ctx = ExpContext::quick(81);
        let rows = run(&ctx, &[0.5, 6.0]);
        let slow = &rows[0];
        let fast = &rows[1];
        // Recalibrations per traversed degree grow with speed (the fast
        // run covers the same arc in fewer steps).
        let slow_rate = slow.recalibrations as f64 / slow.steps.len() as f64;
        let fast_rate = fast.recalibrations as f64 / fast.steps.len() as f64;
        assert!(
            fast_rate >= slow_rate,
            "fast {fast_rate:.3} vs slow {slow_rate:.3} recalibrations/step"
        );
    }

    #[test]
    fn walking_speed_stays_accurate() {
        let ctx = ExpContext::quick(82);
        let rows = run(&ctx, &[1.0]);
        // Quick scale is a 3-class model trained on 300 samples, probed
        // with 32 samples per step: assert the race does not collapse
        // rather than a tight accuracy figure.
        assert!(
            rows[0].accuracy > 0.25,
            "walking-speed tracking accuracy {}",
            rows[0].accuracy
        );
    }
}
