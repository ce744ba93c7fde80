//! Individual programmable meta-atoms.

use metaai_math::C64;

/// A discrete phase code applied to one meta-atom.
///
/// The fabricated prototypes are 2-bit (four states); 1-bit and 3-bit
/// variants are supported for the bit-depth ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhaseCode {
    /// The state index, `0 .. 2^bits`.
    pub index: u8,
    /// Bit depth of the phase shifter (1, 2, or 3).
    pub bits: u8,
}

impl PhaseCode {
    /// Creates a code, validating the index against the bit depth.
    pub fn new(index: u8, bits: u8) -> Self {
        assert!((1..=3).contains(&bits), "bit depth must be 1..=3");
        assert!(
            (index as usize) < (1usize << bits),
            "state {index} out of range for {bits}-bit atom"
        );
        PhaseCode { index, bits }
    }

    /// A 2-bit code — the fabricated hardware.
    pub fn two_bit(index: u8) -> Self {
        PhaseCode::new(index, 2)
    }

    /// Number of states at this bit depth.
    pub fn state_count(self) -> usize {
        1 << self.bits
    }

    /// The nominal phase shift of this state: `index · 2π / 2^bits`
    /// (0, π/2, π, 3π/2 for the 2-bit hardware).
    pub fn phase(self) -> f64 {
        self.index as f64 * std::f64::consts::TAU / self.state_count() as f64
    }

    /// The code at this depth whose phase is closest to `target` radians.
    pub fn quantize(target: f64, bits: u8) -> Self {
        assert!((1..=3).contains(&bits), "bit depth must be 1..=3");
        PhaseCode {
            index: nearest_state(target, 1 << bits),
            bits,
        }
    }

    /// The code π radians away (used by the intra-symbol weight flip —
    /// π is representable at every supported bit depth except 1-bit where
    /// it coincides with the other state).
    pub fn flipped(self) -> Self {
        let half = self.state_count() as u8 / 2;
        PhaseCode::new((self.index + half) % self.state_count() as u8, self.bits)
    }
}

/// Many configurations of one `M`-atom surface at one bit depth, packed:
/// one byte per atom holding its state index, configuration `k` at
/// `indices[k·M .. (k+1)·M]`.
///
/// This is the one layout of every solved programme (a
/// `metaai_sim::WeightSchedule` holds its `R × U` configurations row-major
/// in one), so a configuration is one contiguous row — what the solver's
/// lane kernel writes and realization reads — and the bit depth is stored
/// once, not per atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedCodes {
    indices: Vec<u8>,
    num_atoms: usize,
    bits: u8,
}

impl PackedCodes {
    /// Packs `indices` as configurations of `num_atoms` atoms at depth
    /// `bits`. Panics unless `indices` holds whole configurations and
    /// every index is a state of that depth.
    pub fn from_indices(indices: Vec<u8>, num_atoms: usize, bits: u8) -> Self {
        assert!((1..=3).contains(&bits), "bit depth must be 1..=3");
        assert!(num_atoms > 0, "a configuration covers at least one atom");
        assert!(
            indices.len().is_multiple_of(num_atoms),
            "{} indices do not make whole {num_atoms}-atom configurations",
            indices.len()
        );
        // Depths are powers of two: one OR over every index bounds them all.
        let seen = indices.iter().fold(0u8, |acc, &i| acc | i);
        assert!(
            usize::from(seen) < 1 << bits,
            "state index out of range for {bits}-bit atoms"
        );
        PackedCodes {
            indices,
            num_atoms,
            bits,
        }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.indices.len() / self.num_atoms
    }

    /// Whether there are no configurations.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Atoms per configuration.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Bit depth of every code.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Configuration `k`'s state indices, one per atom.
    pub fn row(&self, k: usize) -> &[u8] {
        &self.indices[k * self.num_atoms..(k + 1) * self.num_atoms]
    }

    /// Every configuration's state indices, configuration-major.
    pub fn as_slice(&self) -> &[u8] {
        &self.indices
    }

    /// Configuration `k` as phase codes, for [`MtsArray::configure`](crate::array::MtsArray::configure).
    pub fn phase_codes(&self, k: usize) -> Vec<PhaseCode> {
        self.row(k)
            .iter()
            .map(|&index| PhaseCode {
                index,
                bits: self.bits,
            })
            .collect()
    }
}

/// The index of the state nearest `target` radians among `n` states:
/// exactly `(target.rem_euclid(TAU) / (TAU / n)).round() as usize % n`,
/// without its two libm calls (the cold solve's initialization runs this
/// once per atom per weight). For `|x| < TAU`, `x % TAU == x` exactly, so
/// the `%` is needed only for larger `|x|` (and NaN/∞, which it maps to
/// NaN as before); [`nearest_state_within_turn`] does the rest.
#[inline]
pub(crate) fn nearest_state(target: f64, n: usize) -> u8 {
    use std::f64::consts::TAU;
    let x = if target.abs() < TAU {
        target
    } else {
        target.rem_euclid(TAU)
    };
    nearest_state_within_turn(x, n) as u8
}

/// [`nearest_state`] for `x` already in `(−TAU, TAU]` (or NaN): there
/// `x.rem_euclid(TAU)` is `x + TAU` when `x < 0`, else `x`, and the
/// remainder `r` lies in `[0, TAU]`. So `v = r / step` lies in `[0, n]`
/// (`n` is a power of two, making `TAU / step == n` exact), where
/// `round(v)` — half away from zero — is the number of half-steps
/// `k + 0.5 ≤ v` for `k < n`; NaN counts none, as `NaN as usize` is 0.
/// Branch-free, and counted in a 64-bit word as wide as `x`, so a loop of
/// these vectorizes.
#[inline(always)]
pub(crate) fn nearest_state_within_turn(x: f64, n: usize) -> u64 {
    use std::f64::consts::TAU;
    let r = if x < 0.0 { x + TAU } else { x };
    let v = r / (TAU / n as f64);
    let mut rounded = 0u64;
    for k in 0..n {
        rounded += u64::from(v >= k as f64 + 0.5);
    }
    rounded & (n as u64 - 1)
}

/// One meta-atom: a programmable reflector with a discrete phase state,
/// a fixed fabrication phase error, and an optional stuck-at fault.
#[derive(Clone, Copy, Debug)]
pub struct MetaAtom {
    /// Programmed state.
    pub code: PhaseCode,
    /// Fixed fabrication phase error, radians (the hardware-noise term
    /// `N_d` of Eqn 13).
    pub phase_error: f64,
    /// When set, the atom ignores programming and stays in this state.
    pub stuck_at: Option<PhaseCode>,
    /// Reflection amplitude (1.0 nominal; PIN diode losses reduce it).
    pub amplitude: f64,
}

impl MetaAtom {
    /// A pristine 2-bit atom in state 0.
    pub fn pristine() -> Self {
        MetaAtom {
            code: PhaseCode::two_bit(0),
            phase_error: 0.0,
            stuck_at: None,
            amplitude: 1.0,
        }
    }

    /// Programs the atom; a stuck atom silently keeps its fault state.
    pub fn program(&mut self, code: PhaseCode) {
        self.code = code;
    }

    /// The state actually in effect (fault-aware).
    pub fn effective_code(&self) -> PhaseCode {
        self.stuck_at.unwrap_or(self.code)
    }

    /// The complex reflection coefficient this atom applies:
    /// `amplitude · e^{j(φ_state + φ_error)}`.
    pub fn reflection(&self) -> C64 {
        self.response(self.code)
    }

    /// The reflection coefficient this atom would apply if programmed
    /// with `code`: a stuck atom answers with its fault state whatever
    /// the code (and whatever the code's bit depth).
    #[inline]
    pub fn response(&self, code: PhaseCode) -> C64 {
        let eff = self.stuck_at.unwrap_or(code);
        C64::from_polar(self.amplitude, eff.phase() + self.phase_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn two_bit_states_are_quarter_turns() {
        let phases: Vec<f64> = (0..4).map(|i| PhaseCode::two_bit(i).phase()).collect();
        assert_eq!(phases, vec![0.0, FRAC_PI_2, PI, 3.0 * FRAC_PI_2]);
    }

    #[test]
    fn quantize_picks_nearest_state() {
        assert_eq!(PhaseCode::quantize(0.1, 2).index, 0);
        assert_eq!(PhaseCode::quantize(FRAC_PI_2 - 0.1, 2).index, 1);
        assert_eq!(PhaseCode::quantize(PI + 0.3, 2).index, 2);
        assert_eq!(PhaseCode::quantize(-0.1, 2).index, 0);
        assert_eq!(PhaseCode::quantize(TAU - 0.4, 2).index, 0);
    }

    #[test]
    fn quantize_error_is_bounded_by_half_step() {
        for bits in 1u8..=3 {
            let step = TAU / (1usize << bits) as f64;
            for k in 0..100 {
                let t = k as f64 * 0.0631;
                let q = PhaseCode::quantize(t, bits).phase();
                let mut err = (t - q).rem_euclid(TAU);
                if err > PI {
                    err = TAU - err;
                }
                assert!(err <= step / 2.0 + 1e-9, "bits={bits} t={t} err={err}");
            }
        }
    }

    /// The libm form `nearest_state` replaces.
    fn libm_state(target: f64, n: usize) -> usize {
        (target.rem_euclid(TAU) / (TAU / n as f64)).round() as usize % n
    }

    #[test]
    fn nearest_state_matches_the_libm_form_bitwise() {
        let mut inputs = vec![
            0.0,
            -0.0,
            TAU,
            -TAU,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // ±4 ulps around every multiple of TAU/16 in [−2·TAU, 2·TAU]: the
        // state boundaries of every depth, and the wrap points.
        for k in -32i32..=32 {
            let x = k as f64 * TAU / 16.0;
            for d in -4i64..=4 {
                for y in [x, -x] {
                    inputs.push(f64::from_bits(y.to_bits().wrapping_add(d as u64)));
                }
            }
        }
        let mut rng = metaai_math::rng::SimRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let word = |rng: &mut metaai_math::rng::SimRng| rng.below(1 << 32) as u64;
            inputs.push(f64::from_bits(word(&mut rng) << 32 | word(&mut rng)));
            inputs.push((rng.uniform() - 0.5) * 4.0 * TAU);
            inputs.push(rng.phase() - rng.phase());
        }
        for &x in &inputs {
            for n in [2usize, 4, 8] {
                assert_eq!(
                    usize::from(nearest_state(x, n)),
                    libm_state(x, n),
                    "x = {x:e} ({:#x}), n = {n}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn flip_is_pi_away() {
        for i in 0..4u8 {
            let c = PhaseCode::two_bit(i);
            let d = (c.flipped().phase() - c.phase()).rem_euclid(TAU);
            assert!((d - PI).abs() < 1e-12);
        }
    }

    #[test]
    fn flip_is_involution() {
        for i in 0..4u8 {
            let c = PhaseCode::two_bit(i);
            assert_eq!(c.flipped().flipped(), c);
        }
    }

    #[test]
    fn reflection_includes_error_and_amplitude() {
        let mut a = MetaAtom::pristine();
        a.program(PhaseCode::two_bit(1));
        a.phase_error = 0.05;
        a.amplitude = 0.9;
        let r = a.reflection();
        assert!((r.abs() - 0.9).abs() < 1e-12);
        assert!((r.arg() - (FRAC_PI_2 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn response_matches_reflection_of_the_programmed_atom() {
        let mut a = MetaAtom::pristine();
        a.phase_error = -0.07;
        a.amplitude = 0.8;
        for bits in 1u8..=3 {
            for index in 0..1u8 << bits {
                let code = PhaseCode::new(index, bits);
                let mut programmed = a;
                programmed.program(code);
                assert_eq!(a.response(code), programmed.reflection());
            }
        }
        a.stuck_at = Some(PhaseCode::two_bit(3));
        let stuck = a.reflection();
        assert_eq!(a.response(PhaseCode::new(1, 1)), stuck);
        assert_eq!(a.response(PhaseCode::new(5, 3)), stuck);
    }

    #[test]
    fn stuck_atom_ignores_programming() {
        let mut a = MetaAtom::pristine();
        a.stuck_at = Some(PhaseCode::two_bit(3));
        a.program(PhaseCode::two_bit(1));
        assert_eq!(a.effective_code().index, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_state() {
        PhaseCode::new(4, 2);
    }

    #[test]
    fn packed_rows_hold_each_configuration_in_order() {
        let codes = PackedCodes::from_indices(vec![0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 1, 1], 4, 2);
        assert_eq!((codes.len(), codes.num_atoms(), codes.bits()), (3, 4, 2));
        assert_eq!(codes.row(1), &[3, 2, 1, 0]);
        assert_eq!(
            codes.phase_codes(1),
            [3, 2, 1, 0].map(PhaseCode::two_bit).to_vec()
        );
        assert_eq!(codes.as_slice().len(), 12);
        assert!(PackedCodes::from_indices(Vec::new(), 4, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range for 1-bit")]
    fn packed_codes_reject_an_index_past_their_depth() {
        PackedCodes::from_indices(vec![0, 1, 2, 1], 2, 1);
    }

    #[test]
    #[should_panic(expected = "whole 4-atom configurations")]
    fn packed_codes_reject_a_partial_configuration() {
        PackedCodes::from_indices(vec![0; 6], 4, 2);
    }
}
