//! Training bits recorded before the complex LNN and the L-layer stack
//! shared one epoch/batch loop. Every digest below was taken from the two
//! separate loops, so a merged loop that reorders one floating-point
//! operation, draws from a renamed stream or skips a zero cograd
//! differently changes a digest.
//!
//! The runs augment every sample (CDFA cyclic shift plus noise) and end
//! each epoch on a partial batch, and each is repeated under 1 and 4
//! rayon workers: the bits are a function of `(data, config, layers)`
//! only.

use metaai::config::SystemConfig;
use metaai::pipeline::MetaAiSystem;
use metaai_math::{CMat, C64};
use metaai_nn::augment::Augmentation;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::TrainEngine;
use metaai_nn::train::{toy_problem, EpochStats, TrainConfig};

mod common;
use common::with_workers;

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn c64_words(z: &C64) -> [u64; 2] {
    [z.re.to_bits(), z.im.to_bits()]
}

fn factors_digest(factors: &[CMat]) -> u64 {
    fnv(factors
        .iter()
        .flat_map(|f| f.as_slice().iter().flat_map(c64_words)))
}

fn stats_digest(stats: &[EpochStats]) -> u64 {
    fnv(stats
        .iter()
        .flat_map(|s| [s.epoch as u64, s.loss.to_bits(), s.accuracy.to_bits()]))
}

/// 84 samples in batches of 27: three full batches (three full 8-sample
/// gradient sub-chunks and a 3-sample one each) and a 3-sample tail.
fn setup() -> (ComplexDataset, TrainConfig) {
    let data = toy_problem(4, 24, 21, 0.3, 31, 131);
    let cfg = TrainConfig {
        epochs: 3,
        batch: 27,
        seed: 5,
        ..TrainConfig::default()
    }
    .with_augmentation(Augmentation::cdfa_default())
    .with_augmentation(Augmentation::noise_default());
    (data, cfg)
}

/// `(weights, stats)` digests of one training run with `layers` factors;
/// one layer also checks that `train_with_stats` is that run.
fn train_digests(layers: usize) -> [u64; 2] {
    let (data, cfg) = setup();
    let engine = TrainEngine::new(cfg);
    let (weights, stats) = engine.train_stack(&data, layers);
    let digests = [factors_digest(&weights.factors), stats_digest(&stats)];
    if layers == 1 {
        let (net, stats) = engine.train_with_stats(&data);
        let net_digests = [
            factors_digest(std::slice::from_ref(&net.weights)),
            stats_digest(&stats),
        ];
        assert_eq!(
            net_digests, digests,
            "train_with_stats is not train_stack(.., 1)"
        );
    }
    digests
}

fn assert_recorded(layers: usize, recorded: [u64; 2]) {
    for workers in [1, 4] {
        let digests = with_workers(workers, || train_digests(layers));
        assert_eq!(digests, recorded, "L = {layers} under {workers} workers");
    }
}

#[test]
fn complex_lnn_training_matches_recorded_bits() {
    assert_recorded(1, [0x6c61_f60f_3077_73f2, 0x4c11_d6b7_8b74_1970]);
}

#[test]
fn two_layer_stack_training_matches_recorded_bits() {
    assert_recorded(2, [0x4992_eedf_3d2d_d1ff, 0x7643_0619_ca07_285a]);
}

#[test]
fn three_layer_stack_training_matches_recorded_bits() {
    assert_recorded(3, [0x5292_ef1f_b1ea_4ba9, 0xb542_a730_5871_7bda]);
}

/// The builder's train-then-deploy at L = 1 and L = 2 (64 atoms in all,
/// paper defaults): the deployed network and factors keep the trained
/// bits.
#[test]
fn train_and_deploy_keeps_the_trained_bits() {
    let (data, cfg) = setup();
    let digests: Vec<u64> = [1, 2]
        .into_iter()
        .flat_map(|layers| {
            let system = MetaAiSystem::builder()
                .config(SystemConfig::paper_default())
                .num_atoms(64)
                .layers(layers)
                .train_and_deploy(&data, &cfg);
            [
                factors_digest(std::slice::from_ref(&system.net.weights)),
                factors_digest(&system.stack.weights.factors),
            ]
        })
        .collect();
    const RECORDED: [u64; 4] = [
        0x6c61_f60f_3077_73f2,
        0x6c61_f60f_3077_73f2,
        0xbd54_54bb_3789_d5e6,
        0x4992_eedf_3d2d_d1ff,
    ];
    assert_eq!(digests, RECORDED);
}
