//! The receiver-feedback reconfiguration protocol (Sec 4 of the paper:
//! "When the receiver moves to new locations, MetaAI employs a feedback
//! protocol to reconfigure the MTS stages accordingly").
//!
//! The loop:
//!
//! 1. between inferences the metasurface briefly presents a *beacon*
//!    configuration — the beam steered at the calibrated receiver
//!    position — and the receiver reports the received beacon power
//!    (a scalar; no raw data leaves the receiver);
//! 2. when the beacon power falls below a fraction of its calibrated
//!    reference (the receiver has left the beam), the controller triggers
//!    recalibration: a beam scan re-estimates the azimuth, the schedule
//!    is re-solved for the new geometry, and inference resumes;
//! 3. [`track`] simulates the whole race for a receiver moving along a
//!    trajectory, accounting for the recalibration dead time.

use crate::config::SystemConfig;
use crate::engine::OtaEngine;
use crate::mobility::MobilityModel;
use crate::pipeline::{redeploy, MetaAiSystem};
use metaai_math::rng::SimRng;
use metaai_math::CVec;
use metaai_mts::control::ControlModel;
use metaai_nn::data::ComplexDataset;
use metaai_rf::geometry::Point3;

/// Beacon-power monitor: decides when the deployed schedule has gone
/// stale.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackMonitor {
    /// Trigger when the received beacon power falls below this fraction
    /// of the power recorded at calibration time (0.5 = −3 dB).
    pub power_threshold: f64,
    /// Consecutive low-power reports required before triggering
    /// (debounces fading dips).
    pub debounce: usize,
}

impl Default for FeedbackMonitor {
    fn default() -> Self {
        FeedbackMonitor {
            power_threshold: 0.5,
            debounce: 2,
        }
    }
}

impl FeedbackMonitor {
    /// The margin of one score vector: top / runner-up (∞-safe). A useful
    /// confidence diagnostic, reported in the track trace.
    pub fn margin(scores: &[f64]) -> f64 {
        assert!(scores.len() >= 2, "need at least two classes");
        let mut top = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &s in scores {
            if s > top {
                second = top;
                top = s;
            } else if s > second {
                second = s;
            }
        }
        if second <= 0.0 {
            f64::INFINITY
        } else {
            top / second
        }
    }

    /// True when the recent beacon-power ratios (received / reference)
    /// say the schedule is stale.
    pub fn should_recalibrate(&self, recent_power_ratios: &[f64]) -> bool {
        if recent_power_ratios.len() < self.debounce {
            return false;
        }
        recent_power_ratios[recent_power_ratios.len() - self.debounce..]
            .iter()
            .all(|&r| r < self.power_threshold)
    }
}

/// The beacon power a receiver at `rx` would measure from `array`
/// beam-steered at the *calibrated* receiver position: the squared
/// magnitude of the beamformed channel.
pub fn beacon_power(
    array: &mut metaai_mts::array::MtsArray,
    tx: Point3,
    calibrated_rx: Point3,
    actual_rx: Point3,
    freq_hz: f64,
) -> f64 {
    // Steer at the calibrated azimuth (as the controller believes it).
    let az = (calibrated_rx.x - array.center.x).atan2(calibrated_rx.y - array.center.y);
    let codes = metaai_mts::beamscan::steering_codes(array, tx, az, freq_hz);
    array.configure(&codes);
    let link = metaai_mts::channel::MtsLink::new(array, tx, actual_rx, freq_hz);
    link.channel(array).norm_sq()
}

/// One step of a tracking simulation.
#[derive(Clone, Debug)]
pub struct TrackStep {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Receiver position at this step.
    pub rx: Point3,
    /// Whether the system was mid-recalibration (inference unavailable).
    pub recalibrating: bool,
    /// Whether the inference (if any) was correct.
    pub correct: Option<bool>,
    /// Reported score margin (confidence feedback).
    pub margin: Option<f64>,
}

/// Outcome of a tracking run.
#[derive(Clone, Debug)]
pub struct TrackReport {
    /// Per-step trace.
    pub steps: Vec<TrackStep>,
    /// Number of recalibrations triggered.
    pub recalibrations: usize,
    /// Accuracy over the steps where inference ran.
    pub accuracy: f64,
    /// Fraction of steps lost to recalibration dead time.
    pub downtime: f64,
}

/// Simulates a receiver moving along `trajectory` (one position per
/// inference attempt, `step_s` seconds apart) while the feedback protocol
/// keeps the deployment fresh.
pub fn track(
    system: &MetaAiSystem,
    test: &ComplexDataset,
    trajectory: &[Point3],
    step_s: f64,
    monitor: &FeedbackMonitor,
    control: &ControlModel,
    mobility: &MobilityModel,
) -> TrackReport {
    assert!(!test.is_empty(), "need test samples to track with");
    let mut current = redeploy(system, &system.config.clone());
    let mut ratios: Vec<f64> = Vec::new();
    let mut steps = Vec::new();
    let mut recalibrations = 0usize;
    let mut dead_until = f64::NEG_INFINITY;
    let mut rng = SimRng::derive(system.config.seed, "feedback-track");

    // Beacon reference power at the calibrated position.
    let mut beacon_array = current.array.clone();
    let mut reference = beacon_power(
        &mut beacon_array,
        current.config.tx,
        current.config.rx,
        current.config.rx,
        current.config.freq_hz,
    );

    for (k, &rx) in trajectory.iter().enumerate() {
        let t = k as f64 * step_s;
        if t < dead_until {
            steps.push(TrackStep {
                time_s: t,
                rx,
                recalibrating: true,
                correct: None,
                margin: None,
            });
            continue;
        }

        // One inference at the *actual* receiver position with the
        // *currently deployed* (possibly stale) schedule.
        let live_channels = current.realize_live(&SystemConfig {
            rx,
            ..current.config.clone()
        });
        let i = k % test.len();
        let x: &CVec = &test.inputs[i];
        let cond = current.default_conditions(x.len(), &mut rng);
        let scores = OtaEngine::new(&live_channels).scores(x, &cond, &mut rng);
        let margin = FeedbackMonitor::margin(&scores);
        let correct = metaai_math::stats::argmax(&scores) == test.labels[i];

        // Beacon feedback: measured at the actual position against the
        // calibrated steering.
        let p = beacon_power(
            &mut beacon_array,
            current.config.tx,
            current.config.rx,
            rx,
            current.config.freq_hz,
        );
        ratios.push(p / reference);

        steps.push(TrackStep {
            time_s: t,
            rx,
            recalibrating: false,
            correct: Some(correct),
            margin: Some(margin),
        });

        if monitor.should_recalibrate(&ratios) {
            // Beam scan + re-solve at the receiver's current position.
            recalibrations += 1;
            ratios.clear();
            let new_cfg = SystemConfig {
                rx,
                ..current.config.clone()
            };
            current = redeploy(&current, &new_cfg);
            beacon_array = current.array.clone();
            reference = beacon_power(
                &mut beacon_array,
                current.config.tx,
                rx,
                rx,
                current.config.freq_hz,
            );
            dead_until = t + mobility.recalibration_s(control);
        }
    }

    let decided: Vec<&TrackStep> = steps.iter().filter(|s| s.correct.is_some()).collect();
    let correct = decided.iter().filter(|s| s.correct == Some(true)).count();
    TrackReport {
        recalibrations,
        accuracy: if decided.is_empty() {
            0.0
        } else {
            correct as f64 / decided.len() as f64
        },
        downtime: 1.0 - decided.len() as f64 / steps.len().max(1) as f64,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_nn::augment::Augmentation;
    use metaai_nn::train::{toy_problem, TrainConfig};
    use metaai_rf::geometry::{deg_to_rad, place_at};

    fn system() -> (MetaAiSystem, ComplexDataset) {
        let train = toy_problem(3, 32, 40, 0.35, 60, 160);
        let test = toy_problem(3, 32, 20, 0.35, 60, 260);
        let cfg = SystemConfig::paper_default();
        let tcfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        }
        .with_augmentation(Augmentation::cdfa_default());
        let sys = MetaAiSystem::builder()
            .config(cfg)
            .train_and_deploy(&train, &tcfg);
        (sys, test)
    }

    #[test]
    fn margin_orders_confidence() {
        assert!(FeedbackMonitor::margin(&[10.0, 1.0]) > FeedbackMonitor::margin(&[10.0, 9.0]));
        assert_eq!(FeedbackMonitor::margin(&[1.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn monitor_debounces() {
        let m = FeedbackMonitor::default();
        assert!(!m.should_recalibrate(&[0.1]), "one dip is not enough");
        assert!(m.should_recalibrate(&[1.0, 0.1, 0.2]));
        assert!(!m.should_recalibrate(&[0.1, 1.0]), "recovered");
        assert!(!m.should_recalibrate(&[1.0, 0.9]));
    }

    #[test]
    fn beacon_power_peaks_at_the_calibrated_position() {
        let cfg = SystemConfig::paper_default();
        let mut array = metaai_mts::array::MtsArray::paper_prototype(cfg.prototype, cfg.mts_center);
        let on_target = beacon_power(&mut array, cfg.tx, cfg.rx, cfg.rx, cfg.freq_hz);
        let off = place_at(cfg.mts_center, 3.0, deg_to_rad(90.0 - 15.0), 1.1);
        let off_target = beacon_power(&mut array, cfg.tx, cfg.rx, off, cfg.freq_hz);
        assert!(
            on_target > 4.0 * off_target,
            "beam rolls off: on {on_target:.3e} vs 25° off {off_target:.3e}"
        );
    }

    #[test]
    fn static_receiver_never_recalibrates() {
        let (sys, test) = system();
        let trajectory = vec![sys.config.rx; 12];
        let report = track(
            &sys,
            &test,
            &trajectory,
            0.5,
            &FeedbackMonitor::default(),
            &ControlModel::default(),
            &MobilityModel::paper_prototype(0.05),
        );
        assert_eq!(report.recalibrations, 0, "static Rx must stay calibrated");
        assert!(report.accuracy > 0.6, "accuracy {}", report.accuracy);
        assert_eq!(report.downtime, 0.0);
    }

    #[test]
    fn tracking_a_stack_scores_the_whole_cascade() {
        // At its own receiver position, a 2-layer system's first tracked
        // inference sees the deployed cascade — not layer 0 alone, and
        // not a redeploy flattened to one surface.
        let train = toy_problem(3, 32, 40, 0.35, 60, 161);
        let test = toy_problem(3, 32, 20, 0.35, 60, 261);
        let tcfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let sys = MetaAiSystem::builder()
            .layers(2)
            .train_and_deploy(&train, &tcfg);
        let report = track(
            &sys,
            &test,
            &[sys.config.rx],
            0.5,
            &FeedbackMonitor::default(),
            &ControlModel::default(),
            &MobilityModel::paper_prototype(0.05),
        );
        let mut rng = SimRng::derive(sys.config.seed, "feedback-track");
        let x = &test.inputs[0];
        let cond = sys.default_conditions(x.len(), &mut rng);
        let scores = OtaEngine::new(&sys.channels).scores(x, &cond, &mut rng);
        assert_eq!(
            report.steps[0].margin,
            Some(FeedbackMonitor::margin(&scores))
        );
    }

    #[test]
    fn moving_receiver_triggers_recalibration_and_recovers() {
        let (sys, test) = system();
        // Walk the receiver 35° around the arc — far outside the beam.
        let mts = sys.config.mts_center;
        let trajectory: Vec<Point3> = (0..30)
            .map(|k| {
                let angle = 40.0 - 35.0 * (k as f64 / 29.0).min(1.0);
                place_at(mts, 3.0, deg_to_rad(90.0 - angle), 1.1)
            })
            .collect();
        let report = track(
            &sys,
            &test,
            &trajectory,
            0.5,
            &FeedbackMonitor::default(),
            &ControlModel::default(),
            &MobilityModel::paper_prototype(0.05),
        );
        assert!(
            report.recalibrations >= 1,
            "a 35° walk must trigger the feedback protocol"
        );
        // The last few steps (after the final recalibration) must work.
        let tail_correct = report
            .steps
            .iter()
            .rev()
            .take(4)
            .filter(|s| s.correct == Some(true))
            .count();
        assert!(
            tail_correct >= 2,
            "post-recalibration accuracy not restored"
        );
    }
}
