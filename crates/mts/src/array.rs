//! The planar meta-atom array and the two fabricated prototypes.

use crate::atom::{MetaAtom, PhaseCode};
use metaai_math::rng::SimRng;
use metaai_rf::geometry::Point3;
use metaai_rf::pathloss::wavelength;

/// The two metasurface prototypes fabricated for the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prototype {
    /// Dual-band prototype covering 2.4 GHz and 5 GHz Wi-Fi bands.
    DualBand,
    /// Single-band prototype for the 3.5 GHz 5G NR band.
    SingleBand35,
}

impl Prototype {
    /// Carrier frequencies this prototype supports, Hz.
    pub fn supported_bands(self) -> &'static [f64] {
        match self {
            Prototype::DualBand => &[2.4e9, 5.0e9, 5.25e9],
            Prototype::SingleBand35 => &[3.5e9],
        }
    }

    /// Whether `freq_hz` falls in a supported band (±10 % tolerance).
    pub fn supports(self, freq_hz: f64) -> bool {
        self.supported_bands()
            .iter()
            .any(|&b| (freq_hz - b).abs() / b < 0.1)
    }

    /// The design frequency that sets the atom spacing.
    pub fn design_frequency(self) -> f64 {
        match self {
            Prototype::DualBand => 5.0e9,
            Prototype::SingleBand35 => 3.5e9,
        }
    }
}

/// A planar array of programmable meta-atoms in the x–y plane of its local
/// frame, broadside along +y, centred at `center`.
#[derive(Clone, Debug)]
pub struct MtsArray {
    /// Which fabricated prototype this array models.
    pub prototype: Prototype,
    /// Atom grid rows (along z).
    pub rows: usize,
    /// Atom grid columns (along x).
    pub cols: usize,
    /// Atom spacing, metres (λ/2 at the design frequency).
    pub spacing: f64,
    /// Array centre in world coordinates.
    pub center: Point3,
    /// The atoms in row-major order.
    pub atoms: Vec<MetaAtom>,
    /// Half field-of-view, radians (±60° for the prototypes).
    pub half_fov: f64,
}

impl MtsArray {
    /// The paper's 16 × 16 array for a given prototype, centred at `center`.
    pub fn paper_prototype(prototype: Prototype, center: Point3) -> Self {
        MtsArray::with_size(prototype, 16, 16, center)
    }

    /// An array with an arbitrary grid size (used by the atom-count sweep,
    /// Fig 7). Spacing is λ/2 at the design frequency.
    pub fn with_size(prototype: Prototype, rows: usize, cols: usize, center: Point3) -> Self {
        assert!(rows > 0 && cols > 0, "array must have atoms");
        let spacing = wavelength(prototype.design_frequency()) / 2.0;
        MtsArray {
            prototype,
            rows,
            cols,
            spacing,
            center,
            atoms: vec![MetaAtom::pristine(); rows * cols],
            half_fov: metaai_rf::geometry::deg_to_rad(60.0),
        }
    }

    /// A square-ish array with exactly `m` atoms (`m` must have an integer
    /// factorization close to square: we use `rows = ⌊√m⌋` when it divides
    /// `m`, otherwise 1 × m).
    pub fn with_atom_count(prototype: Prototype, m: usize, center: Point3) -> Self {
        assert!(m > 0, "array must have atoms");
        let mut rows = (m as f64).sqrt() as usize;
        while rows > 1 && !m.is_multiple_of(rows) {
            rows -= 1;
        }
        MtsArray::with_size(prototype, rows, m / rows, center)
    }

    /// Number of meta-atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// World position of atom `m` (row-major index).
    pub fn atom_position(&self, m: usize) -> Point3 {
        assert!(m < self.num_atoms(), "atom index out of bounds");
        let r = m / self.cols;
        let c = m % self.cols;
        let x0 = -(self.cols as f64 - 1.0) / 2.0 * self.spacing;
        let z0 = -(self.rows as f64 - 1.0) / 2.0 * self.spacing;
        Point3::new(
            self.center.x + x0 + c as f64 * self.spacing,
            self.center.y,
            self.center.z + z0 + r as f64 * self.spacing,
        )
    }

    /// Programs every atom from a slice of codes.
    pub fn configure(&mut self, codes: &[PhaseCode]) {
        assert_eq!(codes.len(), self.num_atoms(), "one code per atom");
        for (a, &c) in self.atoms.iter_mut().zip(codes) {
            a.program(c);
        }
    }

    /// Current (programmed) codes.
    pub fn codes(&self) -> Vec<PhaseCode> {
        self.atoms.iter().map(|a| a.code).collect()
    }

    /// Draws fixed per-atom fabrication phase errors (hardware noise `N_d`).
    pub fn inject_phase_noise(&mut self, sigma_rad: f64, rng: &mut SimRng) {
        for a in &mut self.atoms {
            a.phase_error = rng.normal(0.0, sigma_rad);
        }
    }

    /// Sticks a random fraction of atoms at random states (fault injection).
    pub fn inject_stuck_faults(&mut self, fraction: f64, rng: &mut SimRng) {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        for a in &mut self.atoms {
            if rng.chance(fraction) {
                a.stuck_at = Some(PhaseCode::two_bit(rng.below(4) as u8));
            }
        }
    }

    /// The boresight (broadside) direction of the array, +y in world frame.
    pub fn boresight(&self) -> Point3 {
        Point3::new(0.0, 1.0, 0.0)
    }

    /// Angle between the array boresight and the direction to `p`, radians.
    pub fn off_boresight_angle(&self, p: Point3) -> f64 {
        let d = (p - self.center).normalized();
        d.dot(self.boresight()).clamp(-1.0, 1.0).acos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prototype_is_16_by_16() {
        let a = MtsArray::paper_prototype(Prototype::DualBand, Point3::ORIGIN);
        assert_eq!(a.num_atoms(), 256);
        assert_eq!(a.rows, 16);
        assert_eq!(a.cols, 16);
    }

    #[test]
    fn spacing_is_half_wavelength() {
        let a = MtsArray::paper_prototype(Prototype::SingleBand35, Point3::ORIGIN);
        let lam = wavelength(3.5e9);
        assert!((a.spacing - lam / 2.0).abs() < 1e-12);
    }

    #[test]
    fn atom_positions_are_centred() {
        let a = MtsArray::paper_prototype(Prototype::DualBand, Point3::new(1.0, 2.0, 3.0));
        let mean_x: f64 = (0..a.num_atoms())
            .map(|m| a.atom_position(m).x)
            .sum::<f64>()
            / a.num_atoms() as f64;
        let mean_z: f64 = (0..a.num_atoms())
            .map(|m| a.atom_position(m).z)
            .sum::<f64>()
            / a.num_atoms() as f64;
        assert!((mean_x - 1.0).abs() < 1e-9);
        assert!((mean_z - 3.0).abs() < 1e-9);
        // All atoms lie in the array plane.
        assert!((0..a.num_atoms()).all(|m| (a.atom_position(m).y - 2.0).abs() < 1e-12));
    }

    #[test]
    fn atom_count_constructor_factorizes() {
        for m in [16usize, 32, 64, 128, 256, 512, 1024] {
            let a = MtsArray::with_atom_count(Prototype::DualBand, m, Point3::ORIGIN);
            assert_eq!(a.num_atoms(), m, "m={m}");
            assert!(a.rows <= a.cols);
        }
    }

    #[test]
    fn configure_round_trips() {
        let mut a = MtsArray::with_size(Prototype::DualBand, 2, 2, Point3::ORIGIN);
        let codes: Vec<PhaseCode> = (0..4).map(|i| PhaseCode::two_bit(i as u8)).collect();
        a.configure(&codes);
        assert_eq!(a.codes(), codes);
    }

    #[test]
    fn dual_band_supports_wifi_not_nr() {
        assert!(Prototype::DualBand.supports(2.4e9));
        assert!(Prototype::DualBand.supports(5.25e9));
        assert!(!Prototype::DualBand.supports(3.5e9));
        assert!(Prototype::SingleBand35.supports(3.5e9));
        assert!(!Prototype::SingleBand35.supports(5.0e9));
    }

    #[test]
    fn off_boresight_angle_geometry() {
        let a = MtsArray::paper_prototype(Prototype::DualBand, Point3::ORIGIN);
        assert!(a.off_boresight_angle(Point3::new(0.0, 5.0, 0.0)) < 1e-9);
        let at_45 = a.off_boresight_angle(Point3::new(5.0, 5.0, 0.0));
        assert!((at_45 - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn phase_noise_injection_perturbs_atoms() {
        let mut a = MtsArray::with_size(Prototype::DualBand, 4, 4, Point3::ORIGIN);
        let mut rng = SimRng::seed_from_u64(1);
        a.inject_phase_noise(0.1, &mut rng);
        assert!(a.atoms.iter().any(|at| at.phase_error != 0.0));
    }

    #[test]
    fn stuck_fault_injection_is_fractional() {
        let mut a = MtsArray::with_size(Prototype::DualBand, 16, 16, Point3::ORIGIN);
        let mut rng = SimRng::seed_from_u64(2);
        a.inject_stuck_faults(0.25, &mut rng);
        let stuck = a.atoms.iter().filter(|at| at.stuck_at.is_some()).count();
        assert!((30..100).contains(&stuck), "stuck count {stuck}");
    }
}
