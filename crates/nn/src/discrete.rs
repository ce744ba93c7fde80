//! DiscreteNN — the baseline constrained to discrete weights from the start.
//!
//! Table 1 of the paper compares MetaAI's continuous-train-then-quantize
//! strategy against a network whose weights are discrete *throughout*
//! training (in the spirit of binarized neural networks). Each weight is
//! restricted to the alphabet the hardware offers — a fixed magnitude and
//! a 2-bit phase — and training uses a straight-through estimator:
//! forward passes use the quantized weights, gradients update a continuous
//! shadow copy.
//!
//! The paper finds this consistently 10–20 points worse than MetaAI's
//! approach, because the effective weight alphabet of the *whole surface*
//! (a sum of 256 phasors) is vastly richer than the per-weight alphabet
//! this baseline trains over.

use crate::complex_lnn::ComplexLnn;
use crate::data::ComplexDataset;
use crate::train::TrainConfig;
use metaai_math::rng::SimRng;
use metaai_math::{CMat, C64};

/// Quantizes one weight to the discrete alphabet: fixed magnitude `rho`,
/// phase snapped to `2^bits` uniform states.
pub fn quantize_weight(w: C64, rho: f64, bits: u8) -> C64 {
    let n = 1usize << bits;
    let step = std::f64::consts::TAU / n as f64;
    let q = (w.arg().rem_euclid(std::f64::consts::TAU) / step).round() * step;
    C64::from_polar(rho, q)
}

/// Quantizes a full weight matrix.
pub fn quantize_matrix(w: &CMat, rho: f64, bits: u8) -> CMat {
    CMat::from_fn(w.rows(), w.cols(), |r, c| {
        quantize_weight(w[(r, c)], rho, bits)
    })
}

/// Trains a DiscreteNN: straight-through estimator over a continuous
/// shadow weight matrix, with forward passes through the quantized
/// weights. Returns the network with *quantized* weights.
pub fn train_discrete(data: &ComplexDataset, cfg: &TrainConfig, bits: u8) -> ComplexLnn {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = SimRng::derive(cfg.seed, "train-discrete");
    let mut shadow = ComplexLnn::init(data.num_classes, data.input_len(), &mut rng).weights;
    // Fixed magnitude: the RMS of the initialization keeps scales sane.
    let rho = shadow.fro_norm() / ((shadow.rows() * shadow.cols()) as f64).sqrt();
    let mut velocity = CMat::zeros(data.num_classes, data.input_len());

    for _epoch in 0..cfg.epochs {
        let order = rng.permutation(data.len());
        for chunk in order.chunks(cfg.batch) {
            let quantized = ComplexLnn::from_weights(quantize_matrix(&shadow, rho, bits));
            let mut grad = CMat::zeros(data.num_classes, data.input_len());
            for &idx in chunk {
                let x = if cfg.augmentations.is_empty() {
                    data.inputs[idx].clone()
                } else {
                    crate::augment::apply_all(&cfg.augmentations, &data.inputs[idx], &mut rng)
                };
                quantized.accumulate_grad(&x, data.labels[idx], &mut grad);
            }
            grad.scale_mut(1.0 / chunk.len() as f64);
            velocity.scale_mut(cfg.momentum);
            velocity.axpy(-cfg.lr, &grad);
            for (w, &v) in shadow.as_mut_slice().iter_mut().zip(velocity.as_slice()) {
                *w += v;
            }
        }
    }

    ComplexLnn::from_weights(quantize_matrix(&shadow, rho, bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrainEngine;
    use crate::train::{evaluate, toy_problem};

    #[test]
    fn quantized_weights_live_on_the_alphabet() {
        let w = C64::new(0.3, -0.8);
        let q = quantize_weight(w, 1.0, 2);
        assert!((q.abs() - 1.0).abs() < 1e-12);
        let step = std::f64::consts::FRAC_PI_2;
        let phase_units = q.arg().rem_euclid(std::f64::consts::TAU) / step;
        assert!((phase_units - phase_units.round()).abs() < 1e-9);
    }

    #[test]
    fn quantize_matrix_is_elementwise() {
        let w = CMat::from_fn(2, 2, |r, c| C64::new(r as f64 + 0.1, c as f64 - 0.7));
        let q = quantize_matrix(&w, 0.5, 2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(q[(r, c)], quantize_weight(w[(r, c)], 0.5, 2));
            }
        }
    }

    #[test]
    fn discrete_training_learns_something() {
        let train = toy_problem(3, 24, 50, 0.3, 21, 121);
        let test = toy_problem(3, 24, 20, 0.3, 21, 122);
        let cfg = TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        };
        let net = train_discrete(&train, &cfg, 2);
        let acc = evaluate(&net, &test);
        assert!(acc > 0.5, "discrete accuracy {acc}");
    }

    #[test]
    fn discrete_underperforms_continuous() {
        // The Table 1 ordering: continuous training beats discrete-from-
        // the-start, on a problem hard enough to show the gap.
        let train = toy_problem(5, 32, 60, 0.9, 23, 123);
        let test = toy_problem(5, 32, 30, 0.9, 23, 124);
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let continuous = evaluate(&TrainEngine::new(cfg.clone()).train(&train), &test);
        let discrete = evaluate(&train_discrete(&train, &cfg, 2), &test);
        assert!(
            continuous >= discrete,
            "continuous {continuous} vs discrete {discrete}"
        );
    }

    #[test]
    fn more_bits_help_or_tie() {
        let train = toy_problem(4, 24, 50, 0.8, 25, 125);
        let test = toy_problem(4, 24, 25, 0.8, 25, 126);
        let cfg = TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        };
        let b1 = evaluate(&train_discrete(&train, &cfg, 1), &test);
        let b3 = evaluate(&train_discrete(&train, &cfg, 3), &test);
        assert!(b3 + 0.1 >= b1, "1-bit {b1} vs 3-bit {b3}");
    }

    #[test]
    fn output_weights_are_quantized() {
        let train = toy_problem(3, 8, 20, 0.3, 27, 127);
        let net = train_discrete(
            &train,
            &TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            2,
        );
        let mags: Vec<f64> = net.weights.as_slice().iter().map(|w| w.abs()).collect();
        let first = mags[0];
        assert!(mags.iter().all(|&m| (m - first).abs() < 1e-9));
    }
}
