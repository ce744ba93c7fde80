//! Magnitude + softmax cross-entropy for complex-valued outputs.
//!
//! The over-the-air receiver observes `y_r = |Σ_i H_r(t_i)·x_i|` (Eqn 3):
//! complex accumulations collapsed to magnitudes. Training therefore
//! optimizes cross-entropy over the softmax of those magnitudes, and the
//! gradients flow back through `|z|` with Wirtinger calculus:
//!
//! ```text
//! ∂|z|/∂z̄ = z / (2|z|)
//! ```
//!
//! so the *conjugate cogradient* at the complex logit `z_r` is
//! `g_r · z_r / (2|z_r|)` with `g_r = softmax_r − 1{r = label}`.

use metaai_math::stats::{argmax, softmax_into};
use metaai_math::{CVec, C64};

/// Forward + backward of magnitude-softmax-CE for one sample.
#[derive(Clone, Debug, Default)]
pub struct MagnitudeCeLoss {
    /// Loss value.
    pub loss: f64,
    /// Logit magnitudes `|z_r|`.
    pub mags: Vec<f64>,
    /// Softmax probabilities over classes.
    pub probs: Vec<f64>,
    /// Predicted class (argmax of magnitudes).
    pub predicted: usize,
    /// Conjugate cogradient `∂L/∂z̄_r` at each complex logit.
    pub cograd: CVec,
}

/// Evaluates the loss for complex logits `z` and true `label`.
pub fn magnitude_ce(z: &CVec, label: usize) -> MagnitudeCeLoss {
    let mut out = MagnitudeCeLoss::default();
    magnitude_ce_into(z, label, &mut out);
    out
}

/// [`magnitude_ce`] into `out`, reusing its buffers: no heap allocation
/// once they have grown to `z.len()`.
pub(crate) fn magnitude_ce_into(z: &CVec, label: usize, out: &mut MagnitudeCeLoss) {
    let r = z.len();
    assert!(label < r, "label {label} out of range for {r} outputs");
    out.mags.clear();
    out.mags.extend(z.iter().map(|zk| zk.abs()));
    softmax_into(&out.mags, &mut out.probs);
    out.loss = -out.probs[label].max(1e-300).ln();
    out.predicted = argmax(&out.mags);

    out.cograd.resize(r);
    let parts = out.probs.iter().zip(&out.mags).zip(z.iter());
    for (k, (c, ((&p, &m), &zk))) in out.cograd.as_mut_slice().iter_mut().zip(parts).enumerate() {
        let g = p - if k == label { 1.0 } else { 0.0 };
        *c = if m < 1e-12 {
            // |z| is not differentiable at 0; the subgradient 0 is safe.
            C64::ZERO
        } else {
            zk * (g / (2.0 * m))
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(parts: &[(f64, f64)]) -> CVec {
        CVec::from_vec(parts.iter().map(|&(a, b)| C64::new(a, b)).collect())
    }

    #[test]
    fn loss_is_low_when_correct_class_dominates() {
        let z = logits(&[(5.0, 0.0), (0.1, 0.0), (0.0, 0.1)]);
        let l = magnitude_ce(&z, 0);
        assert!(l.loss < 0.1, "loss {}", l.loss);
        assert_eq!(l.predicted, 0);
    }

    #[test]
    fn loss_is_high_when_wrong_class_dominates() {
        let z = logits(&[(0.1, 0.0), (5.0, 0.0)]);
        let l = magnitude_ce(&z, 0);
        assert!(l.loss > 2.0, "loss {}", l.loss);
        assert_eq!(l.predicted, 1);
    }

    #[test]
    fn probs_sum_to_one() {
        let z = logits(&[(1.0, 1.0), (0.0, 2.0), (-1.0, 0.5)]);
        let l = magnitude_ce(&z, 1);
        assert!((l.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_invariance_under_global_phase() {
        // Rotating every logit by a common phase must not change the loss.
        let z = logits(&[(1.0, 0.5), (0.3, -1.0), (0.8, 0.8)]);
        let rot = C64::cis(1.234);
        let z_rot = CVec::from_fn(z.len(), |i| z[i] * rot);
        let a = magnitude_ce(&z, 2);
        let b = magnitude_ce(&z_rot, 2);
        assert!((a.loss - b.loss).abs() < 1e-12);
    }

    #[test]
    fn cograd_matches_numeric_gradient() {
        // Check ∂L/∂(re, im) numerically against 2·conj-cogradient parts.
        let z0 = logits(&[(0.7, -0.3), (1.1, 0.4), (-0.5, 0.9)]);
        let label = 1;
        let analytic = magnitude_ce(&z0, label).cograd;
        let eps = 1e-6;
        for k in 0..z0.len() {
            for part in 0..2 {
                let mut zp = z0.clone();
                let mut zm = z0.clone();
                if part == 0 {
                    zp[k] += C64::real(eps);
                    zm[k] -= C64::real(eps);
                } else {
                    zp[k] += C64::new(0.0, eps);
                    zm[k] -= C64::new(0.0, eps);
                }
                let num =
                    (magnitude_ce(&zp, label).loss - magnitude_ce(&zm, label).loss) / (2.0 * eps);
                // For real part: dL/da = 2·Re(∂L/∂z̄); imag: dL/db = 2·Im(∂L/∂z̄).
                let a = if part == 0 {
                    2.0 * analytic[k].re
                } else {
                    2.0 * analytic[k].im
                };
                assert!(
                    (num - a).abs() < 1e-5,
                    "k={k} part={part}: numeric {num} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn zero_logit_has_zero_cograd() {
        let z = logits(&[(0.0, 0.0), (1.0, 0.0)]);
        let l = magnitude_ce(&z, 0);
        assert_eq!(l.cograd[0], C64::ZERO);
        assert!(l.cograd[1].abs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        magnitude_ce(&logits(&[(1.0, 0.0)]), 3);
    }
}
