//! Product-parameterized layer training for the stacked cascade.
//!
//! The cascade's effective channel multiplies per-layer responses, so the
//! digital model it must realize is an entrywise *product* of per-layer
//! weight factors:
//!
//! ```text
//! W_eff[r, i] = Π_l W_l[r, i],     z_r = Σ_i W_eff[r, i] · x_i
//! ```
//!
//! All factors train jointly on the paper's magnitude cross-entropy by
//! Wirtinger descent. With cograd `Γ_r = ∂L/∂z̄_r`,
//!
//! ```text
//! ∂L/∂W̄_l[r, i] = Γ_r · x̄_i · conj(Π_{k≠l} W_k[r, i])
//! ```
//!
//! — the single-LNN gradient (`Γ_r·x̄_i`, [`ComplexLnn::accumulate_grad`])
//! times the conjugated complement product, which is constant within a
//! mini-batch and precomputed per update.
//!
//! Determinism follows the [`TrainEngine`](metaai_nn::engine) rules:
//! layer `l` initializes from the counter-derived stream
//! `train-stack-layer-{l}`, epoch shuffles from
//! `(seed, "train-stack-shuffle", epoch)`, per-sample augmentations from
//! `(seed, "train-stack-augment", epoch·N + position)`, and every
//! mini-batch reduces through [`fold_batch`]'s fixed sub-chunk order —
//! the trained factors are bitwise independent of the rayon worker count.

use crate::solve::entrywise_product;
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CVec, C64};
use metaai_nn::augment::apply_all_into;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::data::ComplexDataset;
use metaai_nn::engine::{fold_batch, GRAD_SUBCHUNK};
use metaai_nn::loss::magnitude_ce;
use metaai_nn::train::{EpochStats, TrainConfig};

/// Per-layer weight factors of one stacked network, `factors[l] ∈ ℂ^{R×U}`.
#[derive(Clone, Debug, PartialEq)]
pub struct StackWeights {
    /// One factor matrix per layer, in path order.
    pub factors: Vec<CMat>,
}

impl StackWeights {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.factors.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.factors[0].rows()
    }

    /// Number of input symbols.
    pub fn input_len(&self) -> usize {
        self.factors[0].cols()
    }

    /// The effective single-network weights `W_eff = Π_l W_l`
    /// (entrywise). This is what the fused scoring engine sees.
    pub fn effective(&self) -> CMat {
        entrywise_product(&self.factors)
    }

    /// The effective network as a [`ComplexLnn`] (digital evaluation,
    /// serving shape checks, model export).
    pub fn effective_net(&self) -> ComplexLnn {
        ComplexLnn::from_weights(self.effective())
    }

    /// Seeded per-layer initialization. Layer 0 draws the single-LNN
    /// Gaussian init from stream `train-stack-layer-0`; deeper layers
    /// start as random unit-modulus phase masks (`train-stack-layer-{l}`),
    /// so the initial *effective* weights match a single LNN's
    /// distribution in magnitude while every layer breaks symmetry with
    /// its own stream.
    pub fn init(classes: usize, input_len: usize, layers: usize, seed: u64) -> StackWeights {
        assert!(layers >= 1, "a stack needs at least one layer");
        let factors = (0..layers)
            .map(|l| {
                let mut rng = SimRng::derive(seed, &format!("train-stack-layer-{l}"));
                if l == 0 {
                    let scale = 1.0 / (input_len as f64).sqrt();
                    CMat::from_fn(classes, input_len, |_, _| {
                        rng.complex_gaussian(scale * scale)
                    })
                } else {
                    CMat::from_fn(classes, input_len, |_, _| rng.unit_phasor())
                }
            })
            .collect();
        StackWeights { factors }
    }

    /// Deterministic balanced factorization of a single trained network:
    /// every layer gets the L-th root `|w|^{1/L}·e^{jθ/L}`, equalizing
    /// per-layer dynamic range (each layer's solver quantizes magnitudes
    /// compressed by the root). Deploying a pre-trained net onto a stack
    /// goes through here. For one layer the root is the identity, so the
    /// factor is `weights` itself, bit for bit.
    pub fn from_effective(weights: &CMat, layers: usize) -> StackWeights {
        assert!(layers >= 1, "a stack needs at least one layer");
        if layers == 1 {
            return StackWeights {
                factors: vec![weights.clone()],
            };
        }
        let root = CMat::from_fn(weights.rows(), weights.cols(), |r, c| {
            let w = weights[(r, c)];
            C64::from_polar(w.abs().powf(1.0 / layers as f64), w.arg() / layers as f64)
        });
        StackWeights {
            factors: vec![root; layers],
        }
    }
}

/// Per-sub-chunk scratch: one partial gradient per layer, loss/accuracy
/// counters, and the augmentation ping-pong buffers.
struct StackScratch {
    grads: Vec<CMat>,
    loss: f64,
    correct: usize,
    aug: CVec,
    tmp: CVec,
}

impl StackScratch {
    fn new(layers: usize, classes: usize, input_len: usize) -> Self {
        StackScratch {
            grads: (0..layers)
                .map(|_| CMat::zeros(classes, input_len))
                .collect(),
            loss: 0.0,
            correct: 0,
            aug: CVec::zeros(0),
            tmp: CVec::zeros(0),
        }
    }

    fn reset(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(C64::ZERO);
        }
        self.loss = 0.0;
        self.correct = 0;
    }
}

/// Trains an L-layer stack on `data`, returning the factors and per-epoch
/// statistics of the *effective* network. Output is a pure function of
/// `(data, layers, cfg)` — bitwise identical across runs and worker
/// counts.
pub fn train_stack_with_stats(
    data: &ComplexDataset,
    layers: usize,
    cfg: &TrainConfig,
) -> (StackWeights, Vec<EpochStats>) {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(cfg.batch >= 1, "batch size must be at least 1");
    let (classes, input_len, n) = (data.num_classes, data.input_len(), data.len());
    let mut stack = StackWeights::init(classes, input_len, layers, cfg.seed);
    let mut velocity: Vec<CMat> = (0..layers)
        .map(|_| CMat::zeros(classes, input_len))
        .collect();
    let mut stats = Vec::with_capacity(cfg.epochs);

    let shuffle_stream = SimRng::stream_id("train-stack-shuffle");
    let aug_stream = SimRng::stream_id("train-stack-augment");
    let slots = cfg.batch.min(n).div_ceil(GRAD_SUBCHUNK);
    let mut scratch: Vec<StackScratch> = (0..slots)
        .map(|_| StackScratch::new(layers, classes, input_len))
        .collect();

    for epoch in 0..cfg.epochs {
        let order = SimRng::derive_indexed(cfg.seed, shuffle_stream, epoch as u64).permutation(n);
        let mut epoch_loss = 0.0;
        let mut correct = 0usize;

        for (b, chunk) in order.chunks(cfg.batch).enumerate() {
            // Per-batch constants: the effective weights and, per layer,
            // the conjugate-free complement product Π_{k≠l} W_k.
            let effective = stack.effective();
            let complements: Vec<CMat> = (0..layers)
                .map(|l| {
                    let others: Vec<&CMat> = stack
                        .factors
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| k != l)
                        .map(|(_, f)| f)
                        .collect();
                    if others.is_empty() {
                        CMat::from_fn(classes, input_len, |_, _| C64::ONE)
                    } else {
                        CMat::from_fn(classes, input_len, |r, c| {
                            others.iter().fold(C64::ONE, |acc, f| acc * f[(r, c)])
                        })
                    }
                })
                .collect();

            let augs = cfg.augmentations.as_slice();
            let seed = cfg.seed;
            let eff_ref = &effective;
            let comp_ref = &complements;
            fold_batch(
                chunk,
                b * cfg.batch,
                &mut scratch,
                StackScratch::reset,
                |s, pos, idx| {
                    let x: &CVec = if augs.is_empty() {
                        &data.inputs[idx]
                    } else {
                        let mut rng =
                            SimRng::derive_indexed(seed, aug_stream, (epoch * n + pos) as u64);
                        apply_all_into(augs, &data.inputs[idx], &mut s.aug, &mut s.tmp, &mut rng);
                        &s.aug
                    };
                    let label = data.labels[idx];
                    let z = eff_ref.matvec(x);
                    let out = magnitude_ce(&z, label);
                    for (l, grad) in s.grads.iter_mut().enumerate() {
                        let comp = &comp_ref[l];
                        for (r, g) in out.cograd.iter().enumerate() {
                            let row = grad.row_mut(r);
                            for (i, xi) in x.iter().enumerate() {
                                row[i] += *g * xi.conj() * comp[(r, i)].conj();
                            }
                        }
                    }
                    s.loss += out.loss;
                    if out.predicted == label {
                        s.correct += 1;
                    }
                },
                |acc, part| {
                    for (a, p) in acc.grads.iter_mut().zip(&part.grads) {
                        a.axpy(1.0, p);
                    }
                    acc.loss += part.loss;
                    acc.correct += part.correct;
                },
            );

            let merged = &scratch[0];
            epoch_loss += merged.loss;
            correct += merged.correct;
            // Per layer: v ← μ·v − lr·(g / |chunk|); W ← W + v.
            for ((w, v), g) in stack
                .factors
                .iter_mut()
                .zip(&mut velocity)
                .zip(&merged.grads)
            {
                v.scale_mut(cfg.momentum);
                v.axpy(-cfg.lr / chunk.len() as f64, g);
                for (wi, &vi) in w.as_mut_slice().iter_mut().zip(v.as_slice()) {
                    *wi += vi;
                }
            }
        }

        stats.push(EpochStats {
            epoch,
            loss: epoch_loss / n as f64,
            accuracy: correct as f64 / n as f64,
        });
    }

    (stack, stats)
}

/// [`train_stack_with_stats`] without the statistics.
pub fn train_stack(data: &ComplexDataset, layers: usize, cfg: &TrainConfig) -> StackWeights {
    train_stack_with_stats(data, layers, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_nn::train::{evaluate, toy_problem};

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch: 16,
            seed,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn a_two_layer_stack_learns_the_toy_problem() {
        let data = toy_problem(3, 32, 40, 0.3, 9, 109);
        let (stack, stats) = train_stack_with_stats(&data, 2, &quick_cfg(1));
        assert_eq!(stack.num_layers(), 2);
        let acc = evaluate(&stack.effective_net(), &data);
        assert!(acc > 0.9, "stacked digital accuracy {acc}");
        assert!(
            stats.last().unwrap().loss < stats[0].loss,
            "loss must decrease"
        );
    }

    #[test]
    fn layer_factors_draw_from_distinct_streams() {
        let w = StackWeights::init(3, 8, 3, 7);
        assert_ne!(w.factors[1], w.factors[2]);
        // Deeper layers are pure phase masks.
        for z in w.factors[1].as_slice() {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
        // Same seed, same factors.
        assert_eq!(w, StackWeights::init(3, 8, 3, 7));
    }

    #[test]
    fn balanced_factorization_reproduces_the_effective_weights() {
        let mut rng = SimRng::seed_from_u64(3);
        let w = CMat::from_fn(2, 6, |_, _| rng.complex_gaussian(1.0));
        let stack = StackWeights::from_effective(&w, 3);
        let eff = stack.effective();
        for (a, b) in eff.as_slice().iter().zip(w.as_slice()) {
            assert!((*a - *b).abs() < 1e-9, "{a} vs {b}");
        }
        // Every layer's dynamic range is the cube root of the original.
        let max = stack.factors[0].max_abs();
        assert!((max - w.max_abs().powf(1.0 / 3.0)).abs() < 1e-9);
        // One layer is the network itself, bit for bit.
        assert_eq!(StackWeights::from_effective(&w, 1).factors, vec![w]);
    }

    #[test]
    fn training_is_deterministic_across_runs() {
        let data = toy_problem(3, 16, 20, 0.3, 5, 105);
        let a = train_stack(&data, 2, &quick_cfg(2));
        let b = train_stack(&data, 2, &quick_cfg(2));
        assert_eq!(a, b);
    }
}
