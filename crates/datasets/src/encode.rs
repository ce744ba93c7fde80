//! Byte → bit → symbol encoding, and real-feature extraction.

use crate::BytesDataset;
use metaai_math::CVec;
use metaai_nn::data::{ComplexDataset, RealDataset};
use metaai_phy::Modulation;
use rayon::prelude::*;

/// Modulates one byte vector into a complex symbol vector, exactly as a
/// commodity transmitter would: bytes → bits (MSB-first) → Gray-mapped
/// constellation symbols.
pub fn encode_sample(bytes: &[u8], modulation: Modulation) -> CVec {
    CVec::from_vec(modulation.modulate_bytes(bytes))
}

/// Modulates a whole dataset. The symbol-vector length is
/// `⌈8·bytes / bits_per_symbol⌉`.
pub fn encode_bytes_dataset(data: &BytesDataset, modulation: Modulation) -> ComplexDataset {
    let inputs: Vec<CVec> = data
        .samples
        .par_iter()
        .map(|s| encode_sample(s, modulation))
        .collect();
    ComplexDataset::new(inputs, data.labels.clone(), data.num_classes)
}

/// Converts bytes to centred real features in `[−0.5, 0.5]` for the
/// digital deep baseline (which consumes raw features, not modulated
/// symbols). Centring keeps the MLP's optimization well-conditioned.
pub fn to_real_dataset(data: &BytesDataset) -> RealDataset {
    let inputs: Vec<Vec<f64>> = data
        .samples
        .iter()
        .map(|s| s.iter().map(|&b| b as f64 / 255.0 - 0.5).collect())
        .collect();
    RealDataset::new(inputs, data.labels.clone(), data.num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_bytes() -> BytesDataset {
        BytesDataset {
            samples: vec![vec![0u8, 127, 255], vec![16, 32, 64]],
            labels: vec![0, 1],
            num_classes: 2,
        }
    }

    #[test]
    fn qam256_is_one_symbol_per_byte() {
        let ds = encode_bytes_dataset(&toy_bytes(), Modulation::Qam256);
        assert_eq!(ds.input_len(), 3);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn bpsk_is_eight_symbols_per_byte() {
        let ds = encode_bytes_dataset(&toy_bytes(), Modulation::Bpsk);
        assert_eq!(ds.input_len(), 24);
    }

    #[test]
    fn encoding_round_trips_through_demodulation() {
        let bytes = vec![0xDEu8, 0xAD, 0xBE, 0xEF];
        for m in Modulation::all() {
            let sy = encode_sample(&bytes, m);
            let bits = m.demodulate(sy.as_slice());
            let back = metaai_phy::bits::bits_to_bytes(&bits[..32]);
            assert_eq!(back, bytes, "{}", m.name());
        }
    }

    #[test]
    fn real_dataset_is_centred() {
        let ds = to_real_dataset(&toy_bytes());
        assert_eq!(ds.inputs[0][0], -0.5);
        assert_eq!(ds.inputs[0][2], 0.5);
        assert!((ds.inputs[0][1] - (127.0 / 255.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn labels_are_preserved() {
        let ds = encode_bytes_dataset(&toy_bytes(), Modulation::Qpsk);
        assert_eq!(ds.labels, vec![0, 1]);
    }
}
