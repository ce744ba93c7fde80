//! Linear digital modulations: BPSK, QPSK, and square QAM up to 256-QAM.
//!
//! The paper transmits sensor data with commodity modulations (Fig 23
//! sweeps BPSK → 256-QAM) and relies on one structural property: every
//! constellation is zero-mean, so a symbol stream carries no DC component —
//! the hook for the multipath cancellation scheme.
//!
//! Constellations use Gray mapping per I/Q axis and are normalized to unit
//! average power.

use crate::bits::{group_bits, ungroup_bits};
use metaai_math::C64;
use std::sync::OnceLock;

/// A linear modulation scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit/symbol, antipodal.
    Bpsk,
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol, square 16-QAM.
    Qam16,
    /// 6 bits/symbol, square 64-QAM.
    Qam64,
    /// 8 bits/symbol, square 256-QAM (the paper's default).
    Qam256,
}

impl Modulation {
    /// All schemes in increasing order (paper's Fig 23 sweep).
    pub fn all() -> [Modulation; 5] {
        [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ]
    }

    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Points per I/Q axis for the square QAM constellations (0 for BPSK).
    fn side(self) -> usize {
        match self {
            Modulation::Bpsk => 0,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 8,
            Modulation::Qam256 => 16,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
            Modulation::Qam256 => "256-QAM",
        }
    }

    /// Amplitude normalization so the constellation has unit average power.
    fn norm(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            // Square M-QAM with odd levels ±1, ±3, …: E = 2(L²−1)/3 per
            // complex symbol where L is the per-axis level count.
            other => {
                let l = other.side() as f64;
                (2.0 * (l * l - 1.0) / 3.0).sqrt()
            }
        }
    }

    /// Gray-codes a `bits`-wide integer.
    fn gray(v: u16) -> u16 {
        v ^ (v >> 1)
    }

    /// Inverse Gray code.
    fn ungray(mut g: u16) -> u16 {
        let mut v = g;
        while g > 0 {
            g >>= 1;
            v ^= g;
        }
        v
    }

    /// Maps one `bits_per_symbol()`-wide group to a constellation point.
    pub fn map_symbol(self, group: u16) -> C64 {
        match self {
            Modulation::Bpsk => {
                if group & 1 == 0 {
                    C64::real(1.0)
                } else {
                    C64::real(-1.0)
                }
            }
            _ => {
                let half = self.bits_per_symbol() / 2;
                let mask = (1u16 << half) - 1;
                let i_bits = (group >> half) & mask;
                let q_bits = group & mask;
                let l = self.side() as i32;
                // Gray-decode each axis to a level index, then map indices
                // 0..L to amplitudes −(L−1), …, +(L−1) in steps of 2.
                let li = Self::ungray(i_bits) as i32;
                let lq = Self::ungray(q_bits) as i32;
                let i_amp = (2 * li - (l - 1)) as f64;
                let q_amp = (2 * lq - (l - 1)) as f64;
                C64::new(i_amp, q_amp) / self.norm()
            }
        }
    }

    /// Hard-decision demapping of one received sample to a bit group.
    pub fn demap_symbol(self, z: C64) -> u16 {
        match self {
            Modulation::Bpsk => {
                if z.re >= 0.0 {
                    0
                } else {
                    1
                }
            }
            _ => {
                let half = self.bits_per_symbol() / 2;
                let l = self.side() as i32;
                let clamp_level = |amp: f64| -> u16 {
                    let idx = ((amp * self.norm() + (l - 1) as f64) / 2.0).round() as i32;
                    idx.clamp(0, l - 1) as u16
                };
                let i_bits = Self::gray(clamp_level(z.re));
                let q_bits = Self::gray(clamp_level(z.im));
                (i_bits << half) | q_bits
            }
        }
    }

    /// The constellation indexed by group, built once per scheme from
    /// [`map_symbol`](Self::map_symbol): entry `g` is bitwise
    /// `map_symbol(g)`.
    fn table(self) -> &'static [C64] {
        static TABLES: [OnceLock<Vec<C64>>; 5] = [const { OnceLock::new() }; 5];
        TABLES[self as usize].get_or_init(|| self.constellation())
    }

    /// Modulates a bit stream into symbols (tail zero-padded to a full
    /// group).
    pub fn modulate(self, bits: &[u8]) -> Vec<C64> {
        let table = self.table();
        group_bits(bits, self.bits_per_symbol())
            .into_iter()
            .map(|g| table[g as usize])
            .collect()
    }

    /// Modulates bytes, MSB-first, into symbols: bitwise
    /// `modulate(&bytes_to_bits(bytes))`, with groups cut straight from
    /// the bytes instead of a bit per `Vec` entry.
    pub fn modulate_bytes(self, bytes: &[u8]) -> Vec<C64> {
        let table = self.table();
        let width = self.bits_per_symbol();
        let mask = (1u32 << width) - 1;
        let mut symbols = Vec::with_capacity((8 * bytes.len()).div_ceil(width));
        // `pending` holds the low `held` bits not yet grouped (< width).
        let (mut pending, mut held) = (0u32, 0);
        for &b in bytes {
            pending = (pending << 8) | u32::from(b);
            held += 8;
            while held >= width {
                held -= width;
                symbols.push(table[((pending >> held) & mask) as usize]);
            }
            pending &= (1 << held) - 1;
        }
        if held > 0 {
            symbols.push(table[((pending << (width - held)) & mask) as usize]);
        }
        symbols
    }

    /// Demodulates symbols back into a bit stream.
    pub fn demodulate(self, symbols: &[C64]) -> Vec<u8> {
        let groups: Vec<u16> = symbols.iter().map(|&z| self.demap_symbol(z)).collect();
        ungroup_bits(&groups, self.bits_per_symbol())
    }

    /// The full constellation (2^bits points).
    pub fn constellation(self) -> Vec<C64> {
        (0..(1u16 << self.bits_per_symbol()))
            .map(|g| self.map_symbol(g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bytes_to_bits;

    #[test]
    fn all_constellations_are_zero_mean() {
        for m in Modulation::all() {
            let pts = m.constellation();
            let mean: C64 = pts.iter().copied().sum::<C64>() / pts.len() as f64;
            assert!(mean.abs() < 1e-12, "{} mean {mean}", m.name());
        }
    }

    #[test]
    fn all_constellations_have_unit_average_power() {
        for m in Modulation::all() {
            let pts = m.constellation();
            let p: f64 = pts.iter().map(|z| z.norm_sq()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-9, "{} power {p}", m.name());
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in Modulation::all() {
            let pts = m.constellation();
            for a in 0..pts.len() {
                for b in (a + 1)..pts.len() {
                    assert!(
                        (pts[a] - pts[b]).abs() > 1e-9,
                        "{} duplicates {a} {b}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn noiseless_round_trip_every_group() {
        for m in Modulation::all() {
            for g in 0..(1u16 << m.bits_per_symbol()) {
                assert_eq!(m.demap_symbol(m.map_symbol(g)), g, "{} g={g}", m.name());
            }
        }
    }

    #[test]
    fn bitstream_round_trip() {
        let bits = bytes_to_bits(&[0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC]);
        for m in Modulation::all() {
            let sy = m.modulate(&bits);
            let back = m.demodulate(&sy);
            assert_eq!(&back[..bits.len()], &bits[..], "{}", m.name());
        }
    }

    #[test]
    fn gray_neighbours_differ_by_one_bit() {
        // Along the I axis of 16-QAM, adjacent levels must differ in one bit.
        let m = Modulation::Qam16;
        for level in 0u16..3 {
            let a = Modulation::gray(level);
            let b = Modulation::gray(level + 1);
            assert_eq!((a ^ b).count_ones(), 1);
        }
        let _ = m;
    }

    #[test]
    fn gray_ungray_round_trip() {
        for v in 0u16..256 {
            assert_eq!(Modulation::ungray(Modulation::gray(v)), v);
        }
    }

    #[test]
    fn demap_tolerates_small_noise() {
        let m = Modulation::Qam64;
        // Minimum distance of unit-power 64-QAM is 2/norm ≈ 0.309; noise
        // well inside half of that must not flip decisions.
        for g in [0u16, 17, 42, 63] {
            let z = m.map_symbol(g) + C64::new(0.05, -0.05);
            assert_eq!(m.demap_symbol(z), g);
        }
    }

    #[test]
    fn demap_clamps_out_of_range_samples() {
        let m = Modulation::Qam16;
        // A sample far outside the grid maps to the nearest corner, not a
        // panic or wrap-around.
        let corner = m.demap_symbol(C64::new(10.0, 10.0));
        let z = m.map_symbol(corner);
        assert!(z.re > 0.0 && z.im > 0.0);
    }

    /// The per-symbol path the table replaced, kept as the reference.
    fn modulate_per_symbol(m: Modulation, bits: &[u8]) -> Vec<C64> {
        group_bits(bits, m.bits_per_symbol())
            .into_iter()
            .map(|g| m.map_symbol(g))
            .collect()
    }

    fn symbol_bits(symbols: &[C64]) -> Vec<[u64; 2]> {
        symbols
            .iter()
            .map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    #[test]
    fn every_table_entry_is_bitwise_map_symbol() {
        for m in Modulation::all() {
            let table = m.table();
            assert_eq!(table.len(), 1 << m.bits_per_symbol(), "{}", m.name());
            for g in 0..(1u16 << m.bits_per_symbol()) {
                let [a, b] = [table[g as usize], m.map_symbol(g)];
                assert_eq!(symbol_bits(&[a]), symbol_bits(&[b]), "{} g={g}", m.name());
            }
        }
    }

    #[test]
    fn modulate_matches_the_per_symbol_path_on_random_bits() {
        let mut rng = metaai_math::rng::SimRng::seed_from_u64(17);
        // Lengths around every group width, ragged tails included.
        for len in (0..40).chain([255, 256, 257, 1001]) {
            let bits: Vec<u8> = (0..len).map(|_| rng.below(2) as u8).collect();
            for m in Modulation::all() {
                assert_eq!(
                    symbol_bits(&m.modulate(&bits)),
                    symbol_bits(&modulate_per_symbol(m, &bits)),
                    "{} len={len}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn modulate_bytes_matches_modulating_the_bit_stream() {
        let mut rng = metaai_math::rng::SimRng::seed_from_u64(19);
        // Every byte count mod 3 leaves a different 64-QAM tail.
        for len in (0..12).chain([784, 785, 900]) {
            let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            for m in Modulation::all() {
                let bits = bytes_to_bits(&bytes);
                assert_eq!(
                    symbol_bits(&m.modulate_bytes(&bytes)),
                    symbol_bits(&modulate_per_symbol(m, &bits)),
                    "{} bytes={len}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn paper_default_is_256qam_8_bits() {
        assert_eq!(Modulation::Qam256.bits_per_symbol(), 8);
        assert_eq!(Modulation::Qam256.constellation().len(), 256);
    }
}
