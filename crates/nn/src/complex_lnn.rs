//! The complex-valued linear neural network (Sec 3.1 of the paper).
//!
//! One fully-connected layer `z = W·x` with `W ∈ ℂ^{R×U}`, magnitudes as
//! class scores. Because every LNN collapses to a single layer, this is
//! the complete model — the entire network the metasurface later embodies.
//! A stack of L surfaces embodies the same network as the entrywise
//! product of L factors ([`StackWeights`]).

use crate::loss::{magnitude_ce, MagnitudeCeLoss};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CVec, C64};

/// A single-layer complex linear network.
#[derive(Clone, Debug)]
pub struct ComplexLnn {
    /// Weight matrix, `num_classes × input_len`. Row `r` holds the
    /// time-varying weights `H_r(t_i)` the metasurface will realize.
    pub weights: CMat,
}

impl ComplexLnn {
    /// Random complex-Gaussian initialization scaled by `1/√U`.
    pub fn init(num_classes: usize, input_len: usize, rng: &mut SimRng) -> Self {
        assert!(num_classes >= 2 && input_len >= 1, "degenerate shape");
        let scale = 1.0 / (input_len as f64).sqrt();
        ComplexLnn {
            weights: CMat::from_fn(num_classes, input_len, |_, _| {
                rng.complex_gaussian(scale * scale)
            }),
        }
    }

    /// Wraps an existing weight matrix.
    pub fn from_weights(weights: CMat) -> Self {
        ComplexLnn { weights }
    }

    /// Number of classes `R`.
    pub fn num_classes(&self) -> usize {
        self.weights.rows()
    }

    /// Input length `U`.
    pub fn input_len(&self) -> usize {
        self.weights.cols()
    }

    /// Complex logits `z = W·x`.
    pub fn logits(&self, x: &CVec) -> CVec {
        self.weights.matvec(x)
    }

    /// Class scores `|z_r|` — what the over-the-air receiver measures.
    pub fn scores(&self, x: &CVec) -> Vec<f64> {
        self.logits(x).abs()
    }

    /// Predicted class.
    pub fn predict(&self, x: &CVec) -> usize {
        metaai_math::stats::argmax(&self.scores(x))
    }

    /// Forward + loss for one sample.
    pub fn loss(&self, x: &CVec, label: usize) -> MagnitudeCeLoss {
        magnitude_ce(&self.logits(x), label)
    }

    /// Accumulates the weight cogradient for one sample into `grad`
    /// (same shape as `weights`) and returns the sample's loss/prediction.
    ///
    /// For `z = W·x`, the cogradient w.r.t. `W̄_{r,i}` is
    /// `∂L/∂z̄_r · x̄_i`; the steepest-descent update for complex
    /// parameters steps along `−∂L/∂W̄`.
    pub fn accumulate_grad(&self, x: &CVec, label: usize, grad: &mut CMat) -> MagnitudeCeLoss {
        let out = self.loss(x, label);
        add_weight_cograd(&out.cograd, x, grad);
        out
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, inputs: &[CVec], labels: &[usize]) -> f64 {
        assert_eq!(inputs.len(), labels.len(), "one label per input");
        if inputs.is_empty() {
            return 0.0;
        }
        let correct = inputs
            .iter()
            .zip(labels)
            .filter(|(x, &l)| self.predict(x) == l)
            .count();
        correct as f64 / inputs.len() as f64
    }
}

/// `grad[r, i] += Γ_r · x̄_i` for every row whose cograd `Γ_r` is
/// nonzero: one sample's weight cogradient of `z = W·x`.
pub(crate) fn add_weight_cograd(cograd: &CVec, x: &CVec, grad: &mut CMat) {
    for (r, &g) in cograd.iter().enumerate() {
        if g == C64::ZERO {
            continue;
        }
        let row = grad.row_mut(r);
        for (gi, xi) in row.iter_mut().zip(x.iter()) {
            *gi = gi.mul_add(g, xi.conj());
        }
    }
}

/// Entrywise product of a non-empty list of same-shape matrices. One
/// matrix is its own product, bit for bit (`1·w` is not, where `w` holds
/// a signed zero).
pub fn entrywise_product(factors: &[CMat]) -> CMat {
    assert!(!factors.is_empty(), "empty factor list");
    if let [only] = factors {
        return only.clone();
    }
    let (r, u) = (factors[0].rows(), factors[0].cols());
    CMat::from_fn(r, u, |row, col| {
        factors.iter().fold(C64::ONE, |acc, f| acc * f[(row, col)])
    })
}

/// The product parameterization of the complex LNN: per-layer factors
/// `factors[l] ∈ ℂ^{R×U}` whose entrywise product
/// `W_eff = W_0 ⊙ … ⊙ W_{L−1}` is the network. This is how a stack of L
/// surfaces holds one trained network; L = 1 is the network itself.
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

    /// The effective single-network weights `W_eff = Π_l W_l`
    /// (entrywise); for one layer, the factor itself. This is what the
    /// fused scoring engine sees.
    pub fn effective(&self) -> CMat {
        entrywise_product(&self.factors)
    }

    /// The effective network as a [`ComplexLnn`] (digital evaluation,
    /// serving shape checks, model export).
    pub fn effective_net(&self) -> ComplexLnn {
        ComplexLnn::from_weights(self.effective())
    }

    /// Seeded per-layer initialization. Layer 0 draws the complex LNN's
    /// Gaussian init ([`ComplexLnn::init`]); deeper layers start as
    /// random unit-modulus phase masks, so the initial *effective* weights
    /// match a single LNN's distribution in magnitude while every layer
    /// breaks symmetry with its own stream. Layer `l` draws from stream
    /// `train-stack-layer-{l}`; one layer keeps the complex LNN's stream
    /// `train-complex`.
    pub fn init(classes: usize, input_len: usize, layers: usize, seed: u64) -> StackWeights {
        assert!(layers >= 1, "a stack needs at least one layer");
        let factors = (0..layers)
            .map(|l| {
                let stream = if layers == 1 {
                    "train-complex".to_owned()
                } else {
                    format!("train-stack-layer-{l}")
                };
                let mut rng = SimRng::derive(seed, &stream);
                if l == 0 {
                    ComplexLnn::init(classes, input_len, &mut rng).weights
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

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_input(u: usize, seed: u64) -> CVec {
        let mut rng = SimRng::seed_from_u64(seed);
        CVec::from_fn(u, |_| rng.complex_gaussian(1.0))
    }

    #[test]
    fn shapes_are_consistent() {
        let mut rng = SimRng::seed_from_u64(1);
        let net = ComplexLnn::init(4, 16, &mut rng);
        assert_eq!(net.num_classes(), 4);
        assert_eq!(net.input_len(), 16);
        assert_eq!(net.logits(&toy_input(16, 2)).len(), 4);
    }

    #[test]
    fn prediction_is_scale_invariant() {
        // Scaling all weights by a common complex factor preserves argmax —
        // the property that lets the MTS ignore the common α_p (Sec 3.2).
        let mut rng = SimRng::seed_from_u64(3);
        let net = ComplexLnn::init(5, 8, &mut rng);
        let x = toy_input(8, 4);
        let pred = net.predict(&x);
        let mut scaled = net.weights.clone();
        for w in scaled.as_mut_slice() {
            *w *= C64::from_polar(3.7, 1.2);
        }
        let net2 = ComplexLnn::from_weights(scaled);
        assert_eq!(net2.predict(&x), pred);
    }

    #[test]
    fn weight_cograd_matches_numeric() {
        let mut rng = SimRng::seed_from_u64(5);
        let net = ComplexLnn::init(3, 4, &mut rng);
        let x = toy_input(4, 6);
        let label = 2;
        let mut grad = CMat::zeros(3, 4);
        net.accumulate_grad(&x, label, &mut grad);

        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..4 {
                for part in 0..2 {
                    let mut wp = net.weights.clone();
                    let mut wm = net.weights.clone();
                    let delta = if part == 0 {
                        C64::real(eps)
                    } else {
                        C64::new(0.0, eps)
                    };
                    wp[(r, c)] += delta;
                    wm[(r, c)] -= delta;
                    let lp = ComplexLnn::from_weights(wp).loss(&x, label).loss;
                    let lm = ComplexLnn::from_weights(wm).loss(&x, label).loss;
                    let num = (lp - lm) / (2.0 * eps);
                    let a = if part == 0 {
                        2.0 * grad[(r, c)].re
                    } else {
                        2.0 * grad[(r, c)].im
                    };
                    assert!(
                        (num - a).abs() < 1e-4,
                        "({r},{c}) part {part}: numeric {num} vs analytic {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut net = ComplexLnn::init(3, 8, &mut rng);
        let x = toy_input(8, 8);
        let label = 1;
        let before = net.loss(&x, label).loss;
        let mut grad = CMat::zeros(3, 8);
        net.accumulate_grad(&x, label, &mut grad);
        net.weights.axpy(-0.1, &grad);
        let after = net.loss(&x, label).loss;
        assert!(after < before, "loss {before} → {after}");
    }

    #[test]
    fn accuracy_on_separable_toy_problem() {
        // Two classes keyed to two orthogonal inputs; a hand-built network
        // must classify them perfectly.
        let e0 = CVec::from_fn(2, |i| if i == 0 { C64::ONE } else { C64::ZERO });
        let e1 = CVec::from_fn(2, |i| if i == 1 { C64::ONE } else { C64::ZERO });
        let w = CMat::identity(2);
        let net = ComplexLnn::from_weights(w);
        assert_eq!(net.accuracy(&[e0, e1], &[0, 1]), 1.0);
    }

    #[test]
    fn init_is_seeded() {
        let a = ComplexLnn::init(3, 5, &mut SimRng::seed_from_u64(9));
        let b = ComplexLnn::init(3, 5, &mut SimRng::seed_from_u64(9));
        assert_eq!(a.weights, b.weights);
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
        // One layer is the complex LNN's init.
        let mut rng = SimRng::derive(7, "train-complex");
        assert_eq!(
            StackWeights::init(3, 8, 1, 7).factors,
            vec![ComplexLnn::init(3, 8, &mut rng).weights]
        );
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
    fn one_factor_is_its_own_effective_weights_bit_for_bit() {
        // 1·(−0 − 0j) is +0 − 0j: a product that starts from one would
        // flip the sign of this zero.
        let w = CMat::from_fn(2, 2, |r, c| {
            if (r, c) == (0, 0) {
                C64::new(-0.0, -0.0)
            } else {
                C64::new(r as f64, c as f64)
            }
        });
        let bits = |m: &CMat| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let one = StackWeights::from_effective(&w, 1);
        assert_eq!(bits(&one.effective()), bits(&w));
        assert_eq!(bits(&one.effective_net().weights), bits(&w));
    }
}
