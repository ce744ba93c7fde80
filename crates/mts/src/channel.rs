//! Far-field channel synthesis through the metasurface — Eqn 4 of the paper.
//!
//! The channel through the MTS path is
//!
//! ```text
//! H_mts = α_p · Σ_m e^{jφ_m^p} · e^{jφ_m}
//! ```
//!
//! where `φ_m^p = −k₀(d_{Tx,m} + d_{m,Rx})` is the propagation phase
//! through atom `m`, `φ_m` the programmed phase, and `α_p` the common
//! far-field amplitude. We model `α_p` with the reflectarray link budget —
//! the *product-distance* law `λ²·G/( (4π)²·d₁·d₂ )` — which is what makes
//! the MTS path comparable in strength to the direct environmental leakage
//! at room scale (and hence makes multipath cancellation matter, Fig 17).
//!
//! The element pattern of the atoms limits the field of view: beyond ±60°
//! the per-atom gain collapses, reproducing the FoV cliff of Fig 25.

use crate::array::MtsArray;
use crate::atom::{PackedCodes, PhaseCode};
use metaai_math::C64;
use metaai_rf::geometry::Point3;
use metaai_rf::pathloss::{wavelength, wavenumber};

/// Effective per-atom scattering gain (linear amplitude, ≈ 6 dB), folding
/// the atom aperture and reflection efficiency.
pub const ATOM_GAIN: f64 = 4.0;

/// Element-pattern amplitude at angle `theta` off broadside, with the FoV
/// soft limit at `half_fov`.
///
/// Inside the FoV the pattern is the standard `cos θ` projected-aperture
/// factor; outside it rolls off with a much steeper power, modelling the
/// rapid gain collapse of a practical 2-bit reflectarray element.
pub fn element_pattern(theta: f64, half_fov: f64) -> f64 {
    let t = theta.abs();
    if t >= std::f64::consts::FRAC_PI_2 {
        return 0.0;
    }
    if t <= half_fov {
        t.cos()
    } else {
        // Continuous at the FoV edge, then collapses as cos³.
        let edge = half_fov.cos();
        edge * (t.cos() / edge).powi(3)
    }
}

/// A precomputed Tx → MTS → Rx far-field link at one carrier frequency.
///
/// Precomputation caches the per-atom propagation phasors `e^{jφ_m^p}` so
/// the weight solver can iterate over atoms without recomputing geometry.
#[derive(Clone, Debug)]
pub struct MtsLink {
    /// Transmitter position.
    pub tx: Point3,
    /// Receiver position.
    pub rx: Point3,
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Common far-field amplitude per atom (`α_p` of Eqn 4).
    pub alpha: f64,
    /// Per-atom propagation phasors `e^{jφ_m^p}`.
    pub path_phasors: Vec<C64>,
}

impl MtsLink {
    /// Builds the link for a given array geometry and carrier.
    pub fn new(array: &MtsArray, tx: Point3, rx: Point3, freq_hz: f64) -> Self {
        let k0 = wavenumber(freq_hz);
        let lam = wavelength(freq_hz);
        let m = array.num_atoms();

        let path_phasors: Vec<C64> = (0..m)
            .map(|i| {
                let p = array.atom_position(i);
                let d = tx.distance(p) + p.distance(rx);
                C64::cis(-k0 * d)
            })
            .collect();

        // Far-field common amplitude: product-distance reflectarray law with
        // the element pattern evaluated at the array-centre angles.
        let d1 = tx.distance(array.center).max(0.05);
        let d2 = array.center.distance(rx).max(0.05);
        let th_in = array.off_boresight_angle(tx);
        let th_out = array.off_boresight_angle(rx);
        let pattern =
            element_pattern(th_in, array.half_fov) * element_pattern(th_out, array.half_fov);
        let alpha =
            ATOM_GAIN * lam * lam * pattern / ((4.0 * std::f64::consts::PI).powi(2) * d1 * d2);

        MtsLink {
            tx,
            rx,
            freq_hz,
            alpha,
            path_phasors,
        }
    }

    /// Number of atoms this link was computed for.
    pub fn num_atoms(&self) -> usize {
        self.path_phasors.len()
    }

    /// The channel `H_mts` for the array's current configuration (Eqn 4),
    /// including per-atom fabrication errors and faults.
    pub fn channel(&self, array: &MtsArray) -> C64 {
        assert_eq!(array.num_atoms(), self.num_atoms(), "array/link mismatch");
        let sum: C64 = array
            .atoms
            .iter()
            .zip(&self.path_phasors)
            .map(|(atom, &u)| atom.reflection() * u)
            .sum();
        sum * self.alpha
    }

    /// The *normalized* channel sum `Σ_m e^{j(φ_m^p + φ_m)}` (no `α_p`),
    /// the quantity the weight solver manipulates.
    pub fn normalized_sum(&self, array: &MtsArray) -> C64 {
        self.channel(array) / self.alpha
    }

    /// Upper bound on the normalized channel magnitude: one per atom.
    pub fn max_normalized(&self) -> f64 {
        self.num_atoms() as f64
    }
}

/// Every atom's physical term `e^{jφ_m^p} · a_m e^{j(φ_eff + ε_m)}` for
/// every phase code at every supported depth (1–3 bits), tabulated once
/// per (link, surface) pair.
///
/// Realizing a schedule evaluates one such term per atom × weight — a
/// sine and a cosine each, millions per deployment — although each atom
/// only ever takes `2^bits` distinct values. The table forms each term
/// from exactly the operands the on-the-fly formula used
/// ([`MetaAtom::response`](crate::atom::MetaAtom::response) times the
/// path phasor, stuck-at faults included), and
/// [`normalized_sums`](Self::normalized_sums) folds the looked-up terms
/// left from zero in atom order, the order of `Sum` — so a table
/// realization is bitwise identical to the direct one.
#[derive(Clone, Debug)]
pub struct RealizationTable {
    /// Depth-major blocks: `terms[M·(2^bits − 2) + atom·2^bits + index]`.
    terms: Vec<C64>,
    num_atoms: usize,
}

/// Configurations [`RealizationTable::normalized_sums`] folds together.
const SUM_WAYS: usize = 4;

impl RealizationTable {
    /// Tabulates `array`'s atoms (fabrication errors and faults as they
    /// are now) against `link`'s path phasors.
    pub fn new(link: &MtsLink, array: &MtsArray) -> Self {
        assert_eq!(array.num_atoms(), link.num_atoms(), "array/link mismatch");
        let num_atoms = link.num_atoms();
        // 2 + 4 + 8 codes per atom across the three depths.
        let mut terms = Vec::with_capacity(num_atoms * 14);
        for bits in 1..=3u8 {
            for (atom, &path) in array.atoms.iter().zip(&link.path_phasors) {
                for index in 0..1u8 << bits {
                    terms.push(path * atom.response(PhaseCode::new(index, bits)));
                }
            }
        }
        RealizationTable { terms, num_atoms }
    }

    /// The normalized channel sum `Σ_m e^{jφ_m^p} · a_m e^{j(φ_eff + ε_m)}`
    /// (no `α_p`) of every configuration of `codes`, into `out` (one sum
    /// per configuration, in order).
    ///
    /// Each sum gathers its atoms' terms from the depth's block (a row of
    /// `2^bits` terms per atom, indexed by the packed row's bytes) and
    /// folds them left from zero in atom order. Four
    /// configurations advance through the atoms together, each in its own
    /// accumulator, so their dependent add chains overlap; every sum's
    /// own operations and their order are a lone fold's.
    pub fn normalized_sums(&self, codes: &PackedCodes, out: &mut [C64]) {
        let m = self.num_atoms;
        assert_eq!(codes.num_atoms(), m, "one code per atom");
        assert_eq!(out.len(), codes.len(), "one sum per configuration");
        let states = 1usize << codes.bits();
        let block = &self.terms[m * (states - 2)..][..m * states];
        // Packed indices are below `states`, so the mask changes none of
        // them; it only lets the compiler drop the bounds checks.
        let term = |terms: &[C64], index: u8| terms[usize::from(index) & (states - 1)];
        let mut groups = codes.as_slice().chunks_exact(SUM_WAYS * m);
        let mut sums = out.chunks_exact_mut(SUM_WAYS);
        for (group, sums) in (&mut groups).zip(&mut sums) {
            let mut acc = [C64::ZERO; SUM_WAYS];
            for (atom, terms) in block.chunks_exact(states).enumerate() {
                for (way, acc) in acc.iter_mut().enumerate() {
                    *acc += term(terms, group[way * m + atom]);
                }
            }
            sums.copy_from_slice(&acc);
        }
        let rest = groups.remainder().chunks_exact(m);
        for (row, sum) in rest.zip(sums.into_remainder()) {
            *sum = block
                .chunks_exact(states)
                .zip(row)
                .fold(C64::ZERO, |acc, (terms, &index)| acc + term(terms, index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Prototype;
    use crate::atom::PhaseCode;
    use metaai_rf::geometry::{deg_to_rad, place_at};

    fn paper_link() -> (MtsArray, MtsLink) {
        let center = Point3::new(0.0, 0.0, 1.1);
        let array = MtsArray::paper_prototype(Prototype::DualBand, center);
        let tx = place_at(center, 1.0, deg_to_rad(90.0 - 30.0), 1.1);
        let rx = place_at(center, 3.0, deg_to_rad(90.0 + 40.0), 1.1);
        let link = MtsLink::new(&array, tx, rx, 5.25e9);
        (array, link)
    }

    #[test]
    fn path_phasors_are_unit() {
        let (_, link) = paper_link();
        for u in &link.path_phasors {
            assert!((u.abs() - 1.0).abs() < 1e-12);
        }
        assert_eq!(link.num_atoms(), 256);
    }

    #[test]
    fn channel_magnitude_bounded_by_alpha_m() {
        let (array, link) = paper_link();
        let h = link.channel(&array);
        assert!(h.abs() <= link.alpha * 256.0 + 1e-12);
    }

    #[test]
    fn phase_conjugation_beamforms_to_full_aperture() {
        // Programming each atom to cancel its own path phase (continuous
        // phases would align exactly; 2-bit states get within π/4) must
        // push the channel magnitude close to the α·M upper bound.
        let (mut array, link) = paper_link();
        let codes: Vec<PhaseCode> = link
            .path_phasors
            .iter()
            .map(|u| PhaseCode::quantize(-u.arg(), 2))
            .collect();
        array.configure(&codes);
        let h = link.channel(&array);
        let bound = link.alpha * 256.0;
        assert!(
            h.abs() > 0.85 * bound,
            "beamformed |H| = {} vs bound {}",
            h.abs(),
            bound
        );
    }

    #[test]
    fn product_distance_law() {
        let center = Point3::new(0.0, 0.0, 1.1);
        let array = MtsArray::paper_prototype(Prototype::DualBand, center);
        let tx = place_at(center, 1.0, deg_to_rad(90.0), 1.1);
        let rx1 = place_at(center, 2.0, deg_to_rad(60.0), 1.1);
        let rx2 = place_at(center, 4.0, deg_to_rad(60.0), 1.1);
        let l1 = MtsLink::new(&array, tx, rx1, 5e9);
        let l2 = MtsLink::new(&array, tx, rx2, 5e9);
        assert!(
            (l1.alpha / l2.alpha - 2.0).abs() < 1e-9,
            "α falls as 1/(d1·d2)"
        );
    }

    #[test]
    fn element_pattern_fov_cliff() {
        let fov = deg_to_rad(60.0);
        let inside = element_pattern(deg_to_rad(50.0), fov);
        let edge = element_pattern(deg_to_rad(60.0), fov);
        let outside = element_pattern(deg_to_rad(75.0), fov);
        assert!(inside > edge);
        assert!(edge > outside);
        // Beyond the FoV the collapse is much faster than cos θ.
        assert!(outside < 0.5 * deg_to_rad(75.0).cos());
        // Continuity at the edge.
        let just_in = element_pattern(fov - 1e-6, fov);
        let just_out = element_pattern(fov + 1e-6, fov);
        assert!((just_in - just_out).abs() < 1e-4);
    }

    #[test]
    fn grazing_angle_kills_the_link() {
        assert_eq!(element_pattern(std::f64::consts::FRAC_PI_2, 1.0), 0.0);
    }

    #[test]
    fn normalized_sum_strips_alpha() {
        let (array, link) = paper_link();
        let h = link.channel(&array);
        let n = link.normalized_sum(&array);
        assert!((n * link.alpha - h).abs() < 1e-15);
        assert!(n.abs() <= link.max_normalized() + 1e-9);
    }

    /// One configuration's sum through [`RealizationTable::normalized_sums`].
    fn one_sum(table: &RealizationTable, indices: &[u8], bits: u8) -> C64 {
        let mut sum = [C64::ZERO];
        let codes = PackedCodes::from_indices(indices.to_vec(), indices.len(), bits);
        table.normalized_sums(&codes, &mut sum);
        sum[0]
    }

    #[test]
    fn table_sum_matches_the_configured_channel_bitwise() {
        // Every depth, with phase noise and stuck atoms: the tabulated sum
        // must equal the configured array's own channel, bit for bit.
        let (mut array, link) = paper_link();
        let mut rng = metaai_math::rng::SimRng::seed_from_u64(5);
        array.inject_phase_noise(0.1, &mut rng);
        array.inject_stuck_faults(0.2, &mut rng);
        let table = RealizationTable::new(&link, &array);
        for bits in 1u8..=3 {
            let indices: Vec<u8> = (0..array.num_atoms())
                .map(|_| rng.below(1 << bits) as u8)
                .collect();
            let codes: Vec<PhaseCode> = indices.iter().map(|&i| PhaseCode::new(i, bits)).collect();
            array.configure(&codes);
            let direct = link.channel(&array);
            assert_eq!(
                one_sum(&table, &indices, bits) * link.alpha,
                direct,
                "{bits}-bit"
            );
        }
    }

    /// The per-`PhaseCode` fold the byte-row gather replaced: each code
    /// carries its own depth and picks its term from that depth's block.
    fn phase_code_fold(table: &RealizationTable, codes: &[PhaseCode]) -> C64 {
        codes
            .iter()
            .enumerate()
            .fold(C64::ZERO, |acc, (atom, code)| {
                let depth_base = table.num_atoms * ((1usize << code.bits) - 2);
                acc + table.terms[depth_base + (atom << code.bits) + code.index as usize]
            })
    }

    #[test]
    fn byte_row_gather_matches_the_phase_code_fold_bitwise() {
        let (mut array, link) = paper_link();
        let mut rng = metaai_math::rng::SimRng::seed_from_u64(9);
        array.inject_phase_noise(0.1, &mut rng);
        array.inject_stuck_faults(0.1, &mut rng);
        let table = RealizationTable::new(&link, &array);
        let m = array.num_atoms();
        for bits in 1u8..=3 {
            // Five full groups of configurations and a short one.
            for count in [0, 1, 3, 4, 23] {
                let indices: Vec<u8> = (0..count * m).map(|_| rng.below(1 << bits) as u8).collect();
                let codes = PackedCodes::from_indices(indices, m, bits);
                let mut sums = vec![C64::ZERO; count];
                table.normalized_sums(&codes, &mut sums);
                for (k, sum) in sums.iter().enumerate() {
                    let folded = phase_code_fold(&table, &codes.phase_codes(k));
                    assert_eq!(sum.re.to_bits(), folded.re.to_bits(), "{bits}-bit, {k}");
                    assert_eq!(sum.im.to_bits(), folded.im.to_bits(), "{bits}-bit, {k}");
                }
            }
        }
    }

    #[test]
    fn stuck_fault_changes_channel() {
        let (mut array, link) = paper_link();
        let h_before = link.channel(&array);
        array.atoms[0].stuck_at = Some(PhaseCode::two_bit(2));
        let h_after = link.channel(&array);
        assert!((h_before - h_after).abs() > 0.0);
    }
}
