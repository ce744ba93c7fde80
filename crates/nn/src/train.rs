//! Mini-batch momentum SGD for the complex linear network.
//!
//! Hyperparameters default to the paper's (Sec 4): learning rate
//! 8 × 10⁻³, momentum 0.95, batch size 64, 60 epochs.
//!
//! The training loop itself lives in [`crate::engine::TrainEngine`] —
//! batched, deterministic, and bitwise independent of the worker count.
//! This module holds its configuration, per-epoch statistics, test-set
//! evaluation and a synthetic toy problem.

use crate::augment::Augmentation;
use crate::complex_lnn::ComplexLnn;
use crate::data::ComplexDataset;
use metaai_math::rng::SimRng;
use metaai_math::CVec;
use rayon::prelude::*;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed (initialization, shuffling, augmentation).
    pub seed: u64,
    /// Training-time augmentations, applied per sample per epoch.
    pub augmentations: Vec<Augmentation>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 8e-3,
            momentum: 0.95,
            batch: 64,
            epochs: 60,
            seed: 1,
            augmentations: Vec::new(),
        }
    }
}

impl TrainConfig {
    /// The paper's configuration with a reduced epoch count for quick runs.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        }
    }

    /// Adds an augmentation, builder-style.
    pub fn with_augmentation(mut self, a: Augmentation) -> Self {
        self.augmentations.push(a);
        self
    }
}

/// Per-epoch training telemetry.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f64,
    /// Training accuracy.
    pub accuracy: f64,
}

/// Parallel test-set evaluation.
pub fn evaluate(net: &ComplexLnn, data: &ComplexDataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct: usize = data
        .inputs
        .par_iter()
        .zip(&data.labels)
        .filter(|(x, &l)| net.predict(x) == l)
        .count();
    correct as f64 / data.len() as f64
}

/// Builds a linearly separable synthetic problem for tests and examples:
/// `classes` unit-norm complex prototypes plus per-sample noise.
///
/// `proto_seed` fixes the class prototypes; `sample_seed` fixes the noise
/// draws — build a train/test split by reusing the prototype seed with two
/// different sample seeds.
pub fn toy_problem(
    classes: usize,
    input_len: usize,
    samples_per_class: usize,
    noise: f64,
    proto_seed: u64,
    sample_seed: u64,
) -> ComplexDataset {
    let mut prng = SimRng::derive(proto_seed, "toy-prototypes");
    let mut srng = SimRng::derive(sample_seed, "toy-samples");
    let prototypes: Vec<CVec> = (0..classes)
        .map(|_| {
            let v = CVec::from_fn(input_len, |_| prng.complex_gaussian(1.0));
            let n = v.norm();
            CVec::from_fn(input_len, |i| v[i] / n * (input_len as f64).sqrt())
        })
        .collect();
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for (c, proto) in prototypes.iter().enumerate() {
        for _ in 0..samples_per_class {
            inputs.push(CVec::from_fn(input_len, |i| {
                proto[i] + srng.complex_gaussian(noise * noise)
            }));
            labels.push(c);
        }
    }
    ComplexDataset::new(inputs, labels, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrainEngine;

    #[test]
    fn learns_a_separable_problem() {
        let train = toy_problem(4, 24, 40, 0.3, 1, 100);
        let test = toy_problem(4, 24, 15, 0.3, 1, 200);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        let net = TrainEngine::new(cfg.clone()).train(&train);
        let acc = evaluate(&net, &test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let train = toy_problem(3, 16, 30, 0.4, 3, 300);
        let (_, stats) = TrainEngine::new(TrainConfig::quick()).train_with_stats(&train);
        let first = stats.first().expect("stats").loss;
        let last = stats.last().expect("stats").loss;
        assert!(last < first * 0.8, "loss {first} → {last}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let train = toy_problem(3, 8, 20, 0.3, 4, 400);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let a = TrainEngine::new(cfg.clone()).train(&train);
        let b = TrainEngine::new(cfg.clone()).train(&train);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn augmented_training_survives_cyclic_shift_at_test_time() {
        // The CDFA property: train with (wide, coarse-detection-range)
        // Gamma shifts, test under a residual shift inside that range.
        let train = toy_problem(3, 32, 60, 0.25, 5, 500);
        let test = toy_problem(3, 32, 20, 0.25, 5, 600);

        let plain = TrainEngine::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .train(&train);
        let robust = TrainEngine::new(
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            }
            .with_augmentation(Augmentation::cdfa_coarse_only()),
        )
        .train(&train);

        // Evaluate both on inputs shifted by 3 symbols (3 µs at 1 Msym/s),
        // well inside the coarse residual range the robust model trained
        // against.
        let shifted = ComplexDataset::new(
            test.inputs.iter().map(|x| x.cyclic_shift(3)).collect(),
            test.labels.clone(),
            test.num_classes,
        );
        let acc_plain = evaluate(&plain, &shifted);
        let acc_robust = evaluate(&robust, &shifted);
        assert!(
            acc_robust > acc_plain + 0.15,
            "robust {acc_robust} vs plain {acc_plain}"
        );
    }

    #[test]
    fn noise_augmentation_helps_at_low_snr() {
        let train = toy_problem(3, 32, 60, 0.2, 7, 700);
        let test = toy_problem(3, 32, 25, 0.2, 7, 800);

        let plain = TrainEngine::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        })
        .train(&train);
        let robust = TrainEngine::new(
            TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            }
            .with_augmentation(Augmentation::InputSnr {
                snr_db_min: 0.0,
                snr_db_max: 10.0,
            }),
        )
        .train(&train);

        // Noisy test set at 3 dB.
        let mut rng = SimRng::seed_from_u64(9);
        let aug = Augmentation::InputSnr {
            snr_db_min: 3.0,
            snr_db_max: 3.0,
        };
        let noisy = ComplexDataset::new(
            test.inputs.iter().map(|x| aug.apply(x, &mut rng)).collect(),
            test.labels.clone(),
            test.num_classes,
        );
        let acc_plain = evaluate(&plain, &noisy);
        let acc_robust = evaluate(&robust, &noisy);
        assert!(
            acc_robust >= acc_plain - 0.02,
            "robust {acc_robust} vs plain {acc_plain}"
        );
    }

    #[test]
    fn toy_problem_has_requested_shape() {
        let ds = toy_problem(5, 12, 7, 0.1, 10, 110);
        assert_eq!(ds.len(), 35);
        assert_eq!(ds.input_len(), 12);
        assert_eq!(ds.num_classes, 5);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_training_set() {
        let empty = ComplexDataset::new(Vec::new(), Vec::new(), 2);
        TrainEngine::new(TrainConfig::default()).train(&empty);
    }
}
