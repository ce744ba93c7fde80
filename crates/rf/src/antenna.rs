//! Antenna radiation patterns.
//!
//! The paper's Fig 17 compares directional ("Dire") and omni-directional
//! ("Omni") antennas: the omni antenna picks up more environmental multipath
//! because it has no spatial selectivity. We model this with an idealized
//! cosine-power pattern for the directional antenna.

use crate::geometry::deg_to_rad;
use std::cell::Cell;

/// An antenna radiation pattern, evaluated as amplitude gain versus the
/// angle off boresight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AntennaPattern {
    /// Uniform unit gain in every direction.
    Omni,
    /// Cosine-power main lobe with a floor:
    /// `g(θ) = max(cosᵖ θ, floor)` where `p` is derived from the −3 dB
    /// beamwidth. Typical patch antennas have 60–90° beamwidths.
    Directional {
        /// Full −3 dB beamwidth, radians.
        beamwidth: f64,
        /// Amplitude floor for back/side lobes (e.g. 0.1 ≈ −20 dB).
        sidelobe_floor: f64,
    },
}

impl AntennaPattern {
    /// A typical 65°-beamwidth directional patch antenna with −20 dB
    /// sidelobes.
    pub fn typical_directional() -> Self {
        AntennaPattern::Directional {
            beamwidth: deg_to_rad(65.0),
            sidelobe_floor: 0.1,
        }
    }

    /// Amplitude gain at `theta` radians off boresight.
    pub fn gain(&self, theta: f64) -> f64 {
        match *self {
            AntennaPattern::Omni => 1.0,
            AntennaPattern::Directional {
                beamwidth,
                sidelobe_floor,
            } => {
                let t = theta.abs();
                if t >= std::f64::consts::FRAC_PI_2 {
                    return sidelobe_floor;
                }
                // Choose exponent p so that gain at half the beamwidth is
                // 1/√2 (−3 dB in power): cosᵖ(bw/2) = 2^(-1/2).
                let half = beamwidth / 2.0;
                let p = -0.5 * std::f64::consts::LN_2 / half.cos().ln();
                let g = t.cos().powf(p.max(1.0));
                g.max(sidelobe_floor)
            }
        }
    }

    /// Average amplitude gain over the full sphere of arrival directions.
    ///
    /// Environmental multipath arrives from everywhere; this factor scales
    /// how strongly a given antenna couples to it. Omni → 1, directional →
    /// much smaller, which is why directional antennas suffer less from
    /// multipath (Fig 17).
    ///
    /// The integral depends only on the pattern, and every environment draw
    /// needs it, so each thread keeps the last pattern's value: a repeat
    /// call returns the same `f64` the integral produced, without redoing
    /// it.
    pub fn diffuse_coupling(&self) -> f64 {
        match *self {
            AntennaPattern::Omni => 1.0,
            AntennaPattern::Directional {
                beamwidth,
                sidelobe_floor,
            } => {
                let key = (beamwidth.to_bits(), sidelobe_floor.to_bits());
                DIFFUSE_COUPLING.with(|memo| match memo.get() {
                    Some((k, v)) if k == key => v,
                    _ => {
                        let v = self.integrate_diffuse_coupling();
                        memo.set(Some((key, v)));
                        v
                    }
                })
            }
        }
    }

    /// Numeric average of gain(θ)·sinθ over [0, π].
    fn integrate_diffuse_coupling(&self) -> f64 {
        let n = 256;
        let mut acc = 0.0;
        let mut norm = 0.0;
        for i in 0..n {
            let t = std::f64::consts::PI * (i as f64 + 0.5) / n as f64;
            let w = t.sin();
            acc += self.gain(t) * w;
            norm += w;
        }
        acc / norm
    }
}

thread_local! {
    /// The last directional pattern's diffuse coupling on this thread,
    /// keyed on the exact bits of `(beamwidth, sidelobe_floor)`.
    static DIFFUSE_COUPLING: Cell<Option<((u64, u64), f64)>> = const { Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omni_is_uniform() {
        let a = AntennaPattern::Omni;
        for k in 0..8 {
            assert_eq!(a.gain(k as f64 * 0.4), 1.0);
        }
        assert_eq!(a.diffuse_coupling(), 1.0);
    }

    #[test]
    fn directional_peaks_at_boresight() {
        let a = AntennaPattern::typical_directional();
        assert!((a.gain(0.0) - 1.0).abs() < 1e-12);
        assert!(a.gain(0.3) < 1.0);
        assert!(a.gain(0.3) > a.gain(0.6));
    }

    #[test]
    fn directional_half_beamwidth_is_about_3db() {
        let bw = deg_to_rad(65.0);
        let a = AntennaPattern::Directional {
            beamwidth: bw,
            sidelobe_floor: 0.0,
        };
        let g = a.gain(bw / 2.0);
        // −3 dB in power = 1/√2 in amplitude.
        assert!(
            (g - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05,
            "gain at half beamwidth: {g}"
        );
    }

    #[test]
    fn sidelobe_floor_applies_behind() {
        let a = AntennaPattern::Directional {
            beamwidth: deg_to_rad(65.0),
            sidelobe_floor: 0.1,
        };
        assert_eq!(a.gain(std::f64::consts::PI * 0.75), 0.1);
        assert_eq!(a.gain(-std::f64::consts::PI * 0.75), 0.1);
    }

    #[test]
    fn directional_couples_less_to_diffuse_field() {
        let d = AntennaPattern::typical_directional().diffuse_coupling();
        assert!(d < 0.5, "diffuse coupling should be much below omni: {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn memoised_coupling_is_the_integral_bitwise() {
        let a = AntennaPattern::typical_directional();
        let want = a.integrate_diffuse_coupling().to_bits();
        assert_eq!(a.diffuse_coupling().to_bits(), want);
        assert_eq!(a.diffuse_coupling().to_bits(), want, "memo hit");
    }

    #[test]
    fn alternating_patterns_never_see_a_stale_coupling() {
        let a = AntennaPattern::typical_directional();
        let b = AntennaPattern::Directional {
            beamwidth: deg_to_rad(90.0),
            sidelobe_floor: 0.05,
        };
        let (want_a, want_b) = (
            a.integrate_diffuse_coupling().to_bits(),
            b.integrate_diffuse_coupling().to_bits(),
        );
        assert_ne!(want_a, want_b);
        for _ in 0..3 {
            assert_eq!(a.diffuse_coupling().to_bits(), want_a);
            assert_eq!(b.diffuse_coupling().to_bits(), want_b);
            assert_eq!(AntennaPattern::Omni.diffuse_coupling(), 1.0);
        }
    }

    #[test]
    fn gain_is_symmetric() {
        let a = AntennaPattern::typical_directional();
        for k in 1..6 {
            let t = k as f64 * 0.25;
            assert!((a.gain(t) - a.gain(-t)).abs() < 1e-12);
        }
    }
}
