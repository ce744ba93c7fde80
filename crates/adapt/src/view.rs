//! What the controller believes about the world, per round.
//!
//! The adaptation loop is driven by a *channel view*: a deterministic
//! function from round number to (geometry, quasi-static environmental
//! offset). In simulation the view **is** the ground truth — the same
//! drift the probe realizes against is the one the re-solve targets. On
//! hardware the view would be fed by the paper's beam scan; the
//! controller is agnostic.

use metaai::mobility::DriftSchedule;
use metaai::SystemConfig;
use metaai_math::C64;
use metaai_rf::interference::Interferer;

/// A deterministic per-round model of the live channel.
pub trait ChannelView: Send {
    /// Deployment geometry at `round`.
    fn config_at(&self, round: u64) -> SystemConfig;

    /// Quasi-static environmental component at `round` (Eqn 8's `H_e`,
    /// sampled at probe cadence). Zero in a clean environment.
    fn env_offset_at(&self, _round: u64) -> C64 {
        C64::ZERO
    }
}

/// A world that never changes: the adaptive loop's control group.
#[derive(Clone, Debug)]
pub struct StaticChannel {
    /// The fixed deployment geometry.
    pub base: SystemConfig,
}

impl ChannelView for StaticChannel {
    fn config_at(&self, _round: u64) -> SystemConfig {
        self.base.clone()
    }
}

/// A receiver walking a constant-radius arc ([`DriftSchedule`]).
#[derive(Clone, Debug)]
pub struct MobilityDrift {
    /// Deployment geometry at round 0.
    pub base: SystemConfig,
    /// The walk.
    pub schedule: DriftSchedule,
}

impl ChannelView for MobilityDrift {
    fn config_at(&self, round: u64) -> SystemConfig {
        self.schedule.config_at(&self.base, round)
    }
}

/// A static receiver with a walking interferer adding a scattered path:
/// the geometry holds, but [`Interferer::scatter_gain`] contributes a
/// slowly-varying environmental offset the re-solve compensates.
#[derive(Clone, Debug)]
pub struct InterferenceDrift {
    /// Fixed deployment geometry.
    pub base: SystemConfig,
    /// The walking scatterer.
    pub walker: Interferer,
    /// Simulated seconds between rounds.
    pub step_s: f64,
    /// Initial scattered-path phase (drawn once per realization).
    pub phase0: f64,
}

impl ChannelView for InterferenceDrift {
    fn config_at(&self, _round: u64) -> SystemConfig {
        self.base.clone()
    }

    fn env_offset_at(&self, round: u64) -> C64 {
        self.walker.scatter_gain(
            round as f64 * self.step_s,
            self.base.tx,
            self.base.rx,
            self.base.freq_hz,
            self.phase0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_rf::geometry::Point3;

    #[test]
    fn static_view_is_constant_and_clean() {
        let view = StaticChannel {
            base: SystemConfig::paper_default(),
        };
        assert_eq!(view.config_at(0).rx, view.config_at(100).rx);
        assert_eq!(view.env_offset_at(50), C64::ZERO);
    }

    #[test]
    fn mobility_view_moves_the_receiver_but_stays_clean() {
        let base = SystemConfig::paper_default();
        let view = MobilityDrift {
            base: base.clone(),
            schedule: DriftSchedule::paper_walk(1.5),
        };
        assert_eq!(view.config_at(0).rx, base.rx);
        assert_ne!(view.config_at(10).rx, base.rx);
        assert_eq!(view.env_offset_at(10), C64::ZERO);
    }

    #[test]
    fn interference_view_keeps_geometry_and_varies_the_offset() {
        let base = SystemConfig::paper_default();
        let view = InterferenceDrift {
            walker: Interferer::walking(
                Point3::new(base.tx.x + 1.0, base.tx.y + 1.2, base.tx.z),
                Point3::new(0.0, -1.0, 0.0),
            ),
            base: base.clone(),
            step_s: 0.2,
            phase0: 0.4,
        };
        assert_eq!(view.config_at(7).rx, base.rx);
        let a = view.env_offset_at(0);
        let b = view.env_offset_at(25);
        assert_ne!(a, C64::ZERO);
        assert_ne!(a, b, "a walking scatterer drifts the offset");
        assert_eq!(view.env_offset_at(25), b, "offsets are deterministic");
    }
}
