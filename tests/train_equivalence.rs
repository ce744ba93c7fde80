//! Property tests pinning the batched training engine's determinism
//! contract: the same seed must reproduce the same weights *bitwise*, and
//! the result must be independent of the rayon worker count — each sample
//! owns a counter-derived RNG stream and gradients merge in fixed
//! sub-chunk order, so scheduling cannot leak into the arithmetic.

use metaai_math::C64;
use metaai_nn::augment::Augmentation;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::data::ComplexDataset;
use metaai_nn::train::{toy_problem, EpochStats, TrainConfig};
use metaai_nn::TrainEngine;
use proptest::prelude::*;

mod common;
use common::with_workers;

/// Weight and telemetry bit patterns: `(re, im)` bits per weight, then
/// `(loss, accuracy)` bits per epoch.
type Fingerprint = (Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Serializes a trained network plus its telemetry into exact bit
/// patterns, so equality means bitwise equality.
fn fingerprint(net: &ComplexLnn, stats: &[EpochStats]) -> Fingerprint {
    let weights = net
        .weights
        .as_slice()
        .iter()
        .map(|c: &C64| (c.re.to_bits(), c.im.to_bits()))
        .collect();
    let telemetry = stats
        .iter()
        .map(|s| (s.loss.to_bits(), s.accuracy.to_bits()))
        .collect();
    (weights, telemetry)
}

/// A small problem + config drawn from the proptest case parameters. Kept
/// tiny: every proptest case trains the network at least twice.
fn setup(
    seed: u64,
    classes: usize,
    dim: usize,
    batch: usize,
    augment: bool,
) -> (ComplexDataset, TrainConfig) {
    let data = toy_problem(classes, dim, 6, 0.3, seed, seed.wrapping_add(1));
    let mut cfg = TrainConfig {
        epochs: 2,
        batch,
        seed: seed.wrapping_mul(3).wrapping_add(7),
        ..TrainConfig::default()
    };
    if augment {
        cfg = cfg.with_augmentation(Augmentation::cdfa_default());
    }
    (data, cfg)
}

proptest! {
    /// Same seed, same data ⇒ bitwise-identical weights and telemetry,
    /// with and without augmentations, across batch sizes that exercise
    /// full, partial, and single-sub-chunk batches.
    #[test]
    fn trainer_is_deterministic_per_seed(
        seed in 0u64..500,
        classes in 2usize..4,
        dim in 4usize..12,
        batch in 1usize..20,
        augment in 0u8..2,
    ) {
        let (data, cfg) = setup(seed, classes, dim, batch, augment == 1);
        let engine = TrainEngine::new(cfg);
        let (net_a, stats_a) = engine.train_with_stats(&data);
        let (net_b, stats_b) = engine.train_with_stats(&data);
        prop_assert_eq!(fingerprint(&net_a, &stats_a), fingerprint(&net_b, &stats_b));
    }

    /// Different seeds must not collapse onto the same weights — guards
    /// against the RNG stream derivation accidentally ignoring the seed.
    #[test]
    fn trainer_seed_actually_matters(
        seed in 0u64..500,
        dim in 4usize..12,
    ) {
        let (data, cfg) = setup(seed, 3, dim, 8, false);
        let mut other = cfg.clone();
        other.seed = cfg.seed.wrapping_add(1);
        let (net_a, _) = TrainEngine::new(cfg).train_with_stats(&data);
        let (net_b, _) = TrainEngine::new(other).train_with_stats(&data);
        let same = net_a
            .weights
            .as_slice()
            .iter()
            .zip(net_b.weights.as_slice())
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        prop_assert!(!same, "adjacent seeds produced identical weights");
    }
}

/// Training is bitwise independent of the rayon worker count: per-sample
/// counter-derived RNG streams plus the fixed `GRAD_SUBCHUNK` reduction
/// order make the floating-point summation order a function of the data
/// layout only, never of scheduling.
#[test]
fn training_is_worker_count_independent() {
    // Big enough to span several sub-chunks per batch and a partial tail.
    let data = toy_problem(4, 24, 21, 0.3, 11, 12);
    let cfg = TrainConfig {
        epochs: 3,
        batch: 27,
        seed: 5,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default());
    let engine = TrainEngine::new(cfg);
    let run = || {
        let (net, stats) = engine.train_with_stats(&data);
        fingerprint(&net, &stats)
    };
    let default_threads = run();
    let single = with_workers(1, run);
    let three = with_workers(3, run);
    assert_eq!(default_threads, single, "1 worker changed the result");
    assert_eq!(default_threads, three, "3 workers changed the result");
}
