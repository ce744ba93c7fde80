//! Seeded synthetic stand-ins for the nine datasets the paper evaluates.
//!
//! The real datasets (MNIST, Fashion-MNIST, Fruits-360, AFHQ, CelebA,
//! Widar 3.0, Multi-PIE, RF-Sauron, USC-HAD) are not available in this
//! offline environment, so this crate generates class-structured synthetic
//! data with the same *shape*: class counts, sample counts, and an
//! intrinsic difficulty calibrated so a digital linear model lands near
//! the paper's simulation accuracy for each dataset (see DESIGN.md,
//! substitution table). Every effect the paper reports is *relative* —
//! simulation vs prototype, scheme on vs off, fusion gain — and those
//! relations derive from the architecture, not from the specific images.
//!
//! Generators:
//!
//! * [`images`] — smooth random-field class prototypes with per-sample
//!   deformation and pixel noise, standing in for the five image datasets;
//! * [`series`] — class-keyed multi-tone time series with time warping,
//!   standing in for Widar 3.0 gestures;
//! * [`multisensor`] — a shared latent class variable observed through
//!   per-view mixing transforms, standing in for Multi-PIE (3 camera
//!   views), RF-Sauron (3 antennas), and USC-HAD (accelerometer +
//!   gyroscope);
//! * [`encode`] — bytes → bits → modulated complex symbols, the exact
//!   path a commodity transmitter would take.
//!
//! All generation is deterministic in the dataset seed, at every worker
//! count. Each partition's samples come from one seeded stream, and every
//! sample consumes a fixed number of raw draws, so the image and Widar
//! generators find each sample's stream position by skipping and render
//! the samples in parallel from those checkpoints. Each sample is checked
//! to end where the next one starts, so a wrong count panics rather than
//! changing a byte. [`encode`] modulates samples in parallel, reading
//! each scheme's constellation from a table built from
//! [`Modulation::map_symbol`]. `tests/dataset_bits.rs` at the workspace
//! root pins the bytes and symbols.

pub mod encode;
pub mod export;
pub mod images;
pub mod multisensor;
mod partition;
pub mod series;
pub mod spec;

pub use encode::{encode_bytes_dataset, to_real_dataset};
pub use spec::{DatasetId, DatasetSpec, Scale};

use metaai_nn::data::ComplexDataset;
use metaai_phy::Modulation;

/// Raw (pre-modulation) samples: one byte vector and label per sample.
#[derive(Clone, Debug)]
pub struct BytesDataset {
    /// Per-sample feature bytes.
    pub samples: Vec<Vec<u8>>,
    /// Class labels.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl BytesDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A train/test split of raw byte samples.
#[derive(Clone, Debug)]
pub struct BytesSplit {
    /// Training partition.
    pub train: BytesDataset,
    /// Test partition.
    pub test: BytesDataset,
}

impl BytesSplit {
    /// Modulates both partitions into complex symbol datasets.
    pub fn modulate(&self, modulation: Modulation) -> (ComplexDataset, ComplexDataset) {
        (
            encode_bytes_dataset(&self.train, modulation),
            encode_bytes_dataset(&self.test, modulation),
        )
    }
}

/// Generates the full train/test split for a dataset at a given scale.
pub fn generate(id: DatasetId, scale: Scale, seed: u64) -> BytesSplit {
    let spec = DatasetSpec::of(id, scale);
    match id {
        DatasetId::Mnist
        | DatasetId::Fashion
        | DatasetId::Fruits360
        | DatasetId::Afhq
        | DatasetId::CelebA => images::generate_image_split(&spec, seed),
        DatasetId::Widar3 => series::generate_series_split(&spec, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_all_single_sensor_datasets_quickly() {
        for id in DatasetId::all() {
            let split = generate(id, Scale::Quick, 1);
            let spec = DatasetSpec::of(id, Scale::Quick);
            assert_eq!(split.train.len(), spec.train_samples, "{id:?}");
            assert_eq!(split.test.len(), spec.test_samples, "{id:?}");
            assert_eq!(split.train.num_classes, spec.classes, "{id:?}");
            assert!(split
                .train
                .samples
                .iter()
                .all(|s| s.len() == spec.feature_bytes()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetId::Mnist, Scale::Quick, 7);
        let b = generate(DatasetId::Mnist, Scale::Quick, 7);
        assert_eq!(a.train.samples, b.train.samples);
        assert_eq!(a.test.labels, b.test.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(DatasetId::Mnist, Scale::Quick, 1);
        let b = generate(DatasetId::Mnist, Scale::Quick, 2);
        assert_ne!(a.train.samples, b.train.samples);
    }

    #[test]
    fn modulation_produces_symbol_vectors() {
        let split = generate(DatasetId::Afhq, Scale::Quick, 3);
        let (train, test) = split.modulate(Modulation::Qam256);
        // 256-QAM carries one byte per symbol.
        assert_eq!(train.input_len(), split.train.samples[0].len());
        assert_eq!(test.len(), split.test.len());
    }
}
