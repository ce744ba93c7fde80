//! Environmental multipath: the `H_e` term of the paper.
//!
//! The over-the-air computation receives the superposition of the
//! metasurface path (which encodes the neural-network weight) and every
//! *environmental* path — the direct Tx→Rx leakage plus scattered
//! reflections off walls and furniture. The paper evaluates three indoor
//! environments of increasing multipath richness (corridor < office <
//! laboratory) and shows its intra-symbol cancellation scheme suppresses
//! all of them.
//!
//! We model the environmental channel as a sum of discrete specular
//! scatterers placed randomly in a room box, each with free-space two-leg
//! path loss, a reflection coefficient, and a uniform random phase, plus
//! the direct line-of-sight leg. Dynamic components (a walking interferer)
//! are layered on by [`crate::interference`].

use crate::antenna::AntennaPattern;
use crate::geometry::Point3;
use crate::pathloss::{freespace_gain, friis_amplitude};
use metaai_math::rng::SimRng;
use metaai_math::C64;

/// Indoor environment archetypes evaluated in the paper (Fig 17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnvironmentKind {
    /// Long hallway: few scatterers, weak multipath.
    Corridor,
    /// Furnished office: moderate multipath.
    Office,
    /// Cluttered laboratory: rich multipath.
    Laboratory,
}

impl EnvironmentKind {
    /// Number of discrete scatterers drawn for this environment.
    pub fn scatterer_count(self) -> usize {
        match self {
            EnvironmentKind::Corridor => 4,
            EnvironmentKind::Office => 10,
            EnvironmentKind::Laboratory => 16,
        }
    }

    /// Per-scatterer amplitude reflection coefficient.
    pub fn reflection_coefficient(self) -> f64 {
        match self {
            EnvironmentKind::Corridor => 0.18,
            EnvironmentKind::Office => 0.32,
            EnvironmentKind::Laboratory => 0.38,
        }
    }

    /// All three archetypes, in paper order.
    pub fn all() -> [EnvironmentKind; 3] {
        [
            EnvironmentKind::Corridor,
            EnvironmentKind::Office,
            EnvironmentKind::Laboratory,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            EnvironmentKind::Corridor => "corridor",
            EnvironmentKind::Office => "office",
            EnvironmentKind::Laboratory => "laboratory",
        }
    }
}

/// A static indoor propagation environment between one transmitter and one
/// receiver.
#[derive(Clone, Debug)]
pub struct Environment {
    /// Environment archetype.
    pub kind: EnvironmentKind,
    /// Room bounding box (metres); scatterers are placed inside it.
    pub room: (Point3, Point3),
    /// Transmitter position.
    pub tx: Point3,
    /// Receiver position.
    pub rx: Point3,
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Transmit antenna pattern (assumed aimed at the metasurface).
    pub tx_antenna: AntennaPattern,
    /// Receive antenna pattern (assumed aimed at the metasurface).
    pub rx_antenna: AntennaPattern,
    /// Point both antennas are aimed at — normally the metasurface centre.
    pub boresight: Point3,
    /// Whether the direct Tx→Rx ray exists (false in NLoS deployments).
    pub line_of_sight: bool,
    /// Extra amplitude attenuation on every environmental path
    /// (wall penetration in cross-room scenarios); 1.0 = none.
    pub bulk_attenuation: f64,
}

impl Environment {
    /// A convenient default: office archetype, 6 × 5 × 3 m room, Tx and Rx
    /// aimed at a metasurface at the origin, matching the paper's default
    /// setup (Tx–MTS 1 m @ 30°, MTS–Rx 3 m @ 40°, height 1.1 m, 5.25 GHz).
    pub fn paper_default(kind: EnvironmentKind, tx: Point3, rx: Point3, freq_hz: f64) -> Self {
        Environment {
            kind,
            room: (Point3::new(-3.0, -1.0, 0.0), Point3::new(3.0, 4.0, 3.0)),
            tx,
            rx,
            freq_hz,
            tx_antenna: AntennaPattern::typical_directional(),
            rx_antenna: AntennaPattern::typical_directional(),
            boresight: Point3::ORIGIN,
            line_of_sight: true,
            bulk_attenuation: 1.0,
        }
    }

    /// Draws a static environmental channel gain `H_e`: direct leakage plus
    /// scattered paths. Deterministic given the `rng` state.
    pub fn static_gain(&self, rng: &mut SimRng) -> C64 {
        let mut h = C64::ZERO;

        // Direct Tx→Rx leakage, attenuated by how far off boresight the
        // other terminal sits for each antenna.
        if self.line_of_sight {
            let g_tx = self
                .tx_antenna
                .gain(self.tx.angle_between(self.boresight, self.rx));
            let g_rx = self
                .rx_antenna
                .gain(self.rx.angle_between(self.boresight, self.tx));
            let d = self.tx.distance(self.rx).max(0.05);
            h += freespace_gain(d, self.freq_hz) * (g_tx * g_rx);
        }

        // Scattered paths: Tx → scatterer → Rx with a reflection loss and a
        // uniform phase. Antennas couple to the diffuse field with their
        // angle-averaged gain.
        let diffuse = self.tx_antenna.diffuse_coupling() * self.rx_antenna.diffuse_coupling();
        let refl = self.kind.reflection_coefficient();
        let (lo, hi) = self.room;
        for _ in 0..self.kind.scatterer_count() {
            let s = Point3::new(
                rng.uniform_range(lo.x, hi.x),
                rng.uniform_range(lo.y, hi.y),
                rng.uniform_range(lo.z, hi.z),
            );
            let d_total = self.tx.distance(s) + s.distance(self.rx);
            let amp = friis_amplitude(d_total.max(0.1), self.freq_hz) * refl * diffuse;
            h += C64::from_polar(amp, rng.phase());
        }

        h * self.bulk_attenuation
    }
}

/// A realized per-symbol environmental channel.
///
/// `gains[i]` is `H_e` during symbol `i`; the model guarantees it is
/// constant *within* a symbol (walking-speed dynamics are ~6 orders of
/// magnitude slower than the 1 Msym/s symbol clock), which is the property
/// the paper's intra-symbol cancellation relies on.
#[derive(Clone, Debug)]
pub struct EnvChannel {
    /// Per-symbol environmental gains.
    pub gains: Vec<C64>,
}

impl EnvChannel {
    /// A perfectly clean channel (no environmental paths) of length `n`.
    pub fn silent(n: usize) -> Self {
        EnvChannel {
            gains: vec![C64::ZERO; n],
        }
    }

    /// A static channel: the same gain for all `n` symbols.
    pub fn constant(gain: C64, n: usize) -> Self {
        EnvChannel {
            gains: vec![gain; n],
        }
    }

    /// Realizes a static environment over `n` symbols.
    pub fn from_environment(env: &Environment, n: usize, rng: &mut SimRng) -> Self {
        EnvChannel::constant(env.static_gain(rng), n)
    }

    /// Number of symbols covered.
    pub fn len(&self) -> usize {
        self.gains.len()
    }

    /// True when the channel covers no symbols.
    pub fn is_empty(&self) -> bool {
        self.gains.is_empty()
    }

    /// Environmental gain during symbol `i`.
    pub fn gain_at(&self, i: usize) -> C64 {
        self.gains[i]
    }

    /// Adds another per-symbol component (e.g. a dynamic interferer path).
    pub fn add_component(&mut self, other: &[C64]) {
        assert_eq!(self.gains.len(), other.len(), "component length mismatch");
        for (g, &o) in self.gains.iter_mut().zip(other) {
            *g += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{deg_to_rad, place_at};

    fn default_env(kind: EnvironmentKind) -> Environment {
        let mts = Point3::new(0.0, 0.0, 1.1);
        let tx = place_at(mts, 1.0, deg_to_rad(30.0), 1.1);
        let rx = place_at(mts, 3.0, deg_to_rad(180.0 - 40.0), 1.1);
        Environment::paper_default(kind, tx, rx, 5.25e9)
    }

    #[test]
    fn richer_environments_have_more_scatterers() {
        assert!(
            EnvironmentKind::Corridor.scatterer_count() < EnvironmentKind::Office.scatterer_count()
        );
        assert!(
            EnvironmentKind::Office.scatterer_count()
                < EnvironmentKind::Laboratory.scatterer_count()
        );
    }

    #[test]
    fn corridor_is_weakest_on_average() {
        let mut totals = Vec::new();
        for kind in EnvironmentKind::all() {
            let env = default_env(kind);
            let mut rng = SimRng::seed_from_u64(42);
            let mean_sq: f64 = (0..200)
                .map(|_| env.static_gain(&mut rng).norm_sq())
                .sum::<f64>()
                / 200.0;
            totals.push(mean_sq);
        }
        assert!(totals[0] < totals[1], "corridor < office: {totals:?}");
        assert!(totals[1] < totals[2], "office < laboratory: {totals:?}");
    }

    #[test]
    fn nlos_removes_direct_leg() {
        let mut env = default_env(EnvironmentKind::Corridor);
        let mut rng_a = SimRng::seed_from_u64(7);
        let with_los = env.static_gain(&mut rng_a);
        env.line_of_sight = false;
        let mut rng_b = SimRng::seed_from_u64(7);
        let without_los = env.static_gain(&mut rng_b);
        // Same scatterers (same seed), so the difference is exactly the
        // direct path; it must be nonzero.
        assert!((with_los - without_los).abs() > 0.0);
    }

    #[test]
    fn bulk_attenuation_scales_everything() {
        let mut env = default_env(EnvironmentKind::Office);
        let mut rng_a = SimRng::seed_from_u64(9);
        let full = env.static_gain(&mut rng_a);
        env.bulk_attenuation = 0.5;
        let mut rng_b = SimRng::seed_from_u64(9);
        let half = env.static_gain(&mut rng_b);
        assert!((half.abs() - 0.5 * full.abs()).abs() < 1e-12);
    }

    #[test]
    fn omni_couples_more_multipath_than_directional() {
        let mut dire = default_env(EnvironmentKind::Laboratory);
        dire.line_of_sight = false; // isolate the scattered field
        let mut omni = dire.clone();
        omni.tx_antenna = AntennaPattern::Omni;
        omni.rx_antenna = AntennaPattern::Omni;
        let mut rng_a = SimRng::seed_from_u64(3);
        let mut rng_b = SimRng::seed_from_u64(3);
        let g_dire = dire.static_gain(&mut rng_a).abs();
        let g_omni = omni.static_gain(&mut rng_b).abs();
        assert!(g_omni > g_dire, "omni {g_omni} vs dire {g_dire}");
    }

    #[test]
    fn env_channel_constant_and_components() {
        let mut ch = EnvChannel::constant(C64::new(1.0, 0.0), 3);
        assert_eq!(ch.len(), 3);
        ch.add_component(&[C64::new(0.0, 1.0); 3]);
        assert!((ch.gain_at(1) - C64::new(1.0, 1.0)).abs() < 1e-12);
        assert!(EnvChannel::silent(0).is_empty());
    }

    #[test]
    fn realization_is_deterministic_per_seed() {
        let env = default_env(EnvironmentKind::Office);
        let a = EnvChannel::from_environment(&env, 4, &mut SimRng::seed_from_u64(5));
        let b = EnvChannel::from_environment(&env, 4, &mut SimRng::seed_from_u64(5));
        assert_eq!(a.gains, b.gains);
    }

    /// The `static_gain` cases pinned below: each kind at paper defaults,
    /// then two mixed-antenna cases — two different directional patterns
    /// on one link, and omni Tx with NLoS and a wall. Two draws per case.
    fn pinned_gain_bits() -> Vec<(u64, u64)> {
        let mut cases: Vec<(Environment, u64)> = EnvironmentKind::all()
            .into_iter()
            .map(|kind| (default_env(kind), 7))
            .collect();
        let mut mixed = default_env(EnvironmentKind::Office);
        mixed.rx_antenna = AntennaPattern::Directional {
            beamwidth: deg_to_rad(90.0),
            sidelobe_floor: 0.05,
        };
        cases.push((mixed, 11));
        let mut walled = default_env(EnvironmentKind::Laboratory);
        walled.tx_antenna = AntennaPattern::Omni;
        walled.line_of_sight = false;
        walled.bulk_attenuation = 0.3;
        cases.push((walled, 13));
        cases
            .iter()
            .flat_map(|(env, seed)| {
                let mut rng = SimRng::seed_from_u64(*seed);
                (0..2)
                    .map(|_| {
                        let g = env.static_gain(&mut rng);
                        (g.re.to_bits(), g.im.to_bits())
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// `static_gain` bit patterns recorded before the diffuse coupling was
    /// memoised: the memo must be bitwise invisible.
    #[test]
    fn static_gain_matches_recorded_bits() {
        const RECORDED: [(u64, u64); 10] = [
            (0x3f074912da53b294, 0x3f262abe1802b6f8),
            (0x3f0a7e3c31e3c086, 0x3f23dd842e92279d),
            (0x3f06d9c741a84c02, 0x3f2460b1c28ea01a),
            (0x3f0af0be27ce902b, 0x3f2583cdf75c2b1a),
            (0x3f0926484ec710f0, 0x3f24abef337bc51c),
            (0xbed994f355df18ce, 0x3f2523369a21dce5),
            (0x3f07dc121a302882, 0x3f24b43a4358a68d),
            (0x3efba71d51464bc6, 0x3f2cbace3d96f363),
            (0xbf0c2488744d53a2, 0xbefe78cfb62043a0),
            (0xbef9b2c9051b10e5, 0x3f14deb6fc817c0b),
        ];
        assert_eq!(pinned_gain_bits(), RECORDED);
    }
}
