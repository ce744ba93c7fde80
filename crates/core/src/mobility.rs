//! Receiver mobility and recalibration — the Sec 7 discussion made
//! concrete.
//!
//! When the receiver moves, the precomputed mapping between MTS
//! configurations and logical weights goes stale. Recovery requires a beam
//! scan (angle re-estimation) plus a full schedule re-solve; the system
//! supports a target only while that recalibration loop outruns the
//! receiver's angular drift. This module quantifies the race and gives
//! the receiver walk ([`DriftSchedule`]) that `metaai-adapt`'s controller
//! tracks.

use crate::config::SystemConfig;
use metaai_mts::control::ControlModel;
use metaai_rf::geometry::{deg_to_rad, place_at, rad_to_deg};

/// Parameters of the recalibration race.
#[derive(Clone, Copy, Debug)]
pub struct MobilityModel {
    /// Beam-scan steps per recalibration.
    pub scan_steps: usize,
    /// Measured time to re-solve the schedule, seconds.
    pub solve_time_s: f64,
    /// Angular tolerance before accuracy degrades, radians. Roughly the
    /// array's beamwidth: λ / (N·d) ≈ 2/N for a half-wave-spaced array.
    pub angle_tolerance_rad: f64,
}

impl MobilityModel {
    /// Defaults for the 16 × 16 prototype: a 121-step scan and the
    /// array's ≈ 7° beamwidth.
    pub fn paper_prototype(solve_time_s: f64) -> Self {
        MobilityModel {
            scan_steps: 121,
            solve_time_s,
            angle_tolerance_rad: 2.0 / 16.0,
        }
    }

    /// Total recalibration latency, seconds.
    pub fn recalibration_s(&self, control: &ControlModel) -> f64 {
        control.recalibration_time_s(self.scan_steps, self.solve_time_s)
    }

    /// The maximum tangential receiver speed (m/s) the system can track at
    /// `distance` metres: the receiver must not cross the angular
    /// tolerance within one recalibration period.
    pub fn max_trackable_speed(&self, control: &ControlModel, distance_m: f64) -> f64 {
        assert!(distance_m > 0.0, "distance must be positive");
        self.angle_tolerance_rad * distance_m / self.recalibration_s(control)
    }

    /// Whether a receiver moving at `speed_mps` tangentially at
    /// `distance_m` stays within tolerance between recalibrations.
    pub fn supports(&self, control: &ControlModel, distance_m: f64, speed_mps: f64) -> bool {
        speed_mps <= self.max_trackable_speed(control, distance_m)
    }
}

/// A deterministic receiver trajectory for driving drifting-channel
/// simulations: the receiver walks an arc of constant radius around the
/// metasurface at constant tangential speed, sampled every `step_s`
/// seconds. Round 0 is the deployment geometry; each later round moves
/// the receiver by `speed_mps · step_s` metres along the arc (decreasing
/// azimuth, the same walk the mobility benchmark traces).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSchedule {
    /// Tangential receiver speed, m/s.
    pub speed_mps: f64,
    /// Arc radius around the metasurface centre, metres.
    pub radius_m: f64,
    /// Simulated time between rounds, seconds.
    pub step_s: f64,
    /// Azimuth at round 0, degrees (the solved deployment angle).
    pub start_angle_deg: f64,
}

impl DriftSchedule {
    /// The benchmark walk: the paper geometry's 3 m radius and 40° start,
    /// sampled at 5 Hz.
    pub fn paper_walk(speed_mps: f64) -> Self {
        DriftSchedule {
            speed_mps,
            radius_m: 3.0,
            step_s: 0.2,
            start_angle_deg: 40.0,
        }
    }

    /// Azimuth at `round`, degrees.
    pub fn angle_at(&self, round: u64) -> f64 {
        let deg_per_step = rad_to_deg(self.speed_mps * self.step_s / self.radius_m);
        self.start_angle_deg - deg_per_step * round as f64
    }

    /// `base` with the receiver moved to this schedule's position at
    /// `round` (same height as the deployment receiver, everything else
    /// untouched).
    pub fn config_at(&self, base: &SystemConfig, round: u64) -> SystemConfig {
        let rx = place_at(
            base.mts_center,
            self.radius_m,
            deg_to_rad(90.0 - self.angle_at(round)),
            base.rx.z,
        );
        SystemConfig { rx, ..base.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recalibration_dominated_by_solve_time() {
        let m = MobilityModel::paper_prototype(0.05);
        let c = ControlModel::default();
        let t = m.recalibration_s(&c);
        assert!(t > 0.05 && t < 0.06, "recalibration {t}");
    }

    #[test]
    fn walking_speed_is_trackable_at_room_scale() {
        // With a 50 ms solve, a receiver at 3 m can move ≈ 7 m/s — a
        // walking user (1.5 m/s) is comfortably supported.
        let m = MobilityModel::paper_prototype(0.05);
        let c = ControlModel::default();
        assert!(m.supports(&c, 3.0, 1.5));
    }

    #[test]
    fn fast_targets_at_close_range_are_not() {
        let m = MobilityModel::paper_prototype(0.5);
        let c = ControlModel::default();
        // A drone at 0.5 m doing 10 m/s crosses the beam far faster than a
        // half-second recalibration.
        assert!(!m.supports(&c, 0.5, 10.0));
    }

    #[test]
    fn max_speed_scales_with_distance() {
        let m = MobilityModel::paper_prototype(0.1);
        let c = ControlModel::default();
        let near = m.max_trackable_speed(&c, 1.0);
        let far = m.max_trackable_speed(&c, 10.0);
        assert!((far / near - 10.0).abs() < 1e-9);
    }

    #[test]
    fn drift_schedule_starts_at_the_deployment_geometry_and_walks_the_arc() {
        let base = SystemConfig::paper_default();
        let walk = DriftSchedule::paper_walk(1.5);
        assert_eq!(walk.angle_at(0), 40.0);
        let at0 = walk.config_at(&base, 0);
        assert!(
            (at0.rx.x - base.rx.x).abs() < 1e-9
                && (at0.rx.y - base.rx.y).abs() < 1e-9
                && (at0.rx.z - base.rx.z).abs() < 1e-9,
            "round 0 is the solved position ({:?} vs {:?})",
            at0.rx,
            base.rx
        );
        // 1.5 m/s · 0.2 s on a 3 m arc = 0.1 rad ≈ 5.73° per round,
        // decreasing azimuth.
        let per_step = walk.angle_at(0) - walk.angle_at(1);
        assert!((per_step - rad_to_deg(0.1)).abs() < 1e-9, "{per_step}");
        // The receiver stays on the arc.
        for round in [1u64, 5, 20] {
            let cfg = walk.config_at(&base, round);
            let dx = cfg.rx.x - base.mts_center.x;
            let dy = cfg.rx.y - base.mts_center.y;
            assert!(((dx * dx + dy * dy).sqrt() - 3.0).abs() < 1e-9);
        }
        // A zero-speed schedule never moves: the static baseline.
        let frozen = DriftSchedule::paper_walk(0.0);
        assert_eq!(frozen.angle_at(50), 40.0);
    }
}
