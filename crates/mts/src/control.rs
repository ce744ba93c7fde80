//! Controller timing and energy model.
//!
//! The prototypes are driven by an STM32 microcontroller: the 256 atoms are
//! split into 16 groups, each fed by four SN74LV595 shift registers, with
//! the groups loaded in parallel. The paper reports a maximum switching
//! rate of 2.56 M coding patterns per second, and its Appendix A.4 energy
//! accounting attributes ≈ 2.353 mJ of MTS control energy to one MNIST
//! inference (10 classes × 157 symbols × 2 chips = 3140 patterns),
//! i.e. ≈ 0.75 µJ per pattern.

/// Timing/energy model of the metasurface controller.
#[derive(Clone, Copy, Debug)]
pub struct ControlModel {
    /// Maximum configuration switching rate, patterns per second.
    pub switching_rate_hz: f64,
    /// Number of parallel-loaded atom groups.
    pub groups: usize,
    /// Shift registers per group.
    pub registers_per_group: usize,
    /// Bits per atom state.
    pub bits_per_atom: usize,
    /// Energy consumed per applied pattern, joules.
    pub energy_per_pattern_j: f64,
}

impl Default for ControlModel {
    fn default() -> Self {
        ControlModel {
            switching_rate_hz: 2.56e6,
            groups: 16,
            registers_per_group: 4,
            bits_per_atom: 2,
            energy_per_pattern_j: 0.75e-6,
        }
    }
}

impl ControlModel {
    /// Minimum time between configuration changes, seconds.
    pub fn pattern_period_s(&self) -> f64 {
        1.0 / self.switching_rate_hz
    }

    /// Serial bits shifted per group per pattern (atoms/groups × bits).
    pub fn bits_per_group(&self, num_atoms: usize) -> usize {
        num_atoms.div_ceil(self.groups) * self.bits_per_atom
    }

    /// Whether the controller can keep up with `patterns_per_second`.
    pub fn can_sustain(&self, patterns_per_second: f64) -> bool {
        patterns_per_second <= self.switching_rate_hz
    }

    /// Patterns needed to transmit `n_symbols` with `slots_per_symbol`
    /// intra-symbol weight flips.
    pub fn patterns_for(&self, n_symbols: usize, slots_per_symbol: usize) -> usize {
        n_symbols * slots_per_symbol
    }

    /// Control energy for one inference of `n_symbols` symbols with
    /// `slots_per_symbol` chips each, joules.
    pub fn inference_energy_j(&self, n_symbols: usize, slots_per_symbol: usize) -> f64 {
        self.patterns_for(n_symbols, slots_per_symbol) as f64 * self.energy_per_pattern_j
    }

    /// Time to reconfigure after a receiver moves: one beam scan of
    /// `scan_steps` patterns plus re-solving (solver time supplied by the
    /// caller), seconds. This is the "recalibration latency" of the
    /// mobility discussion (Sec 7).
    pub fn recalibration_time_s(&self, scan_steps: usize, solve_time_s: f64) -> f64 {
        scan_steps as f64 * self.pattern_period_s() + solve_time_s
    }

    /// Serializes one configuration — one state index per atom, a
    /// [`PackedCodes`](crate::atom::PackedCodes) row — into the per-group
    /// shift-register bit streams the STM32 clocks out: group `g` drives
    /// atoms `g·(M/groups) .. (g+1)·(M/groups)`, each atom contributing
    /// `bits_per_atom` bits MSB-first, packed in atom order.
    ///
    /// The prototype's wiring (16 groups × 4 × 8-bit SN74LV595 per group,
    /// 2 bits per atom) means each group's stream is exactly 32 bits.
    pub fn pattern_bits(&self, indices: &[u8]) -> Vec<Vec<bool>> {
        assert!(
            indices.len().is_multiple_of(self.groups),
            "atom count {} must divide into {} groups",
            indices.len(),
            self.groups
        );
        let per_group = indices.len() / self.groups;
        (0..self.groups)
            .map(|g| {
                let mut bits = Vec::with_capacity(per_group * self.bits_per_atom);
                for &index in &indices[g * per_group..(g + 1) * per_group] {
                    for k in (0..self.bits_per_atom).rev() {
                        bits.push((index >> k) & 1 == 1);
                    }
                }
                bits
            })
            .collect()
    }

    /// Decodes per-group bit streams back into state indices (the inverse
    /// of [`ControlModel::pattern_bits`]) — what the shift-register outputs
    /// present to the PIN-diode drivers.
    pub fn decode_pattern(&self, groups: &[Vec<bool>]) -> Vec<u8> {
        let mut indices = Vec::new();
        for bits in groups {
            assert!(
                bits.len() % self.bits_per_atom == 0,
                "group stream must hold whole atoms"
            );
            for atom_bits in bits.chunks(self.bits_per_atom) {
                let mut idx = 0u8;
                for &b in atom_bits {
                    idx = (idx << 1) | b as u8;
                }
                indices.push(idx);
            }
        }
        indices
    }

    /// Time to clock one pattern into the registers at `spi_clock_hz`,
    /// seconds — groups load in parallel, so it is one group's bit count
    /// over the clock. Must be below the pattern period for the advertised
    /// switching rate to be sustainable.
    pub fn load_time_s(&self, num_atoms: usize, spi_clock_hz: f64) -> f64 {
        self.bits_per_group(num_atoms) as f64 / spi_clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_hardware() {
        let c = ControlModel::default();
        assert_eq!(c.groups, 16);
        assert_eq!(c.registers_per_group, 4);
        assert!((c.switching_rate_hz - 2.56e6).abs() < 1.0);
    }

    #[test]
    fn pattern_period_is_inverse_rate() {
        let c = ControlModel::default();
        assert!((c.pattern_period_s() - 390.625e-9).abs() < 1e-12);
    }

    #[test]
    fn bits_per_group_for_prototype() {
        let c = ControlModel::default();
        // 256 atoms / 16 groups × 2 bits = 32 bits — exactly four 8-bit
        // SN74LV595 registers.
        assert_eq!(c.bits_per_group(256), 32);
        assert_eq!(c.bits_per_group(256) / 8, c.registers_per_group);
    }

    #[test]
    fn sustains_symbol_rate_with_chips() {
        let c = ControlModel::default();
        // 1 Msym/s × 2 chips = 2 M patterns/s < 2.56 M.
        assert!(c.can_sustain(2.0e6));
        assert!(!c.can_sustain(3.0e6));
    }

    #[test]
    fn mnist_inference_energy_near_paper_value() {
        let c = ControlModel::default();
        // Full MNIST inference: 10 classes × 157 symbols × 2 chips
        // = 3140 patterns ≈ 2.35 mJ (Table 2's MTS column).
        let e = c.inference_energy_j(10 * 157, 2);
        assert!((e - 2.353e-3).abs() < 0.01e-3, "energy {e}");
    }

    #[test]
    fn recalibration_combines_scan_and_solve() {
        let c = ControlModel::default();
        let t = c.recalibration_time_s(121, 0.01);
        assert!(t > 0.01);
        assert!(t < 0.02);
    }

    #[test]
    fn pattern_bits_round_trip() {
        let c = ControlModel::default();
        let indices: Vec<u8> = (0..256).map(|i| (i % 4) as u8).collect();
        let groups = c.pattern_bits(&indices);
        assert_eq!(groups.len(), 16);
        assert!(groups.iter().all(|g| g.len() == 32), "32 bits per group");
        assert_eq!(c.decode_pattern(&groups), indices);
    }

    #[test]
    fn pattern_bits_are_msb_first() {
        let c = ControlModel {
            groups: 1,
            ..ControlModel::default()
        };
        let groups = c.pattern_bits(&[2]); // binary 10
        assert_eq!(groups[0], vec![true, false]);
    }

    #[test]
    fn register_load_fits_in_the_pattern_period() {
        // 32 bits per group at a 50 MHz shift clock = 0.64 µs... which
        // exceeds the 0.39 µs pattern period — the hardware must therefore
        // double-buffer (the 595's latch stage). At 100 MHz it fits
        // directly.
        let c = ControlModel::default();
        assert!(c.load_time_s(256, 100e6) < c.pattern_period_s());
        assert!(c.load_time_s(256, 50e6) > c.pattern_period_s());
    }
}
