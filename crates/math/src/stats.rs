//! Descriptive statistics and classifier utilities.
//!
//! The experiment harness reports percentiles and CDFs (Figs 12 and 19 of
//! the paper); the networks need softmax/argmax and dB conversions.
//!
//! # Ordering contract
//!
//! Every order statistic in this workspace — [`percentile`] here, and the
//! margin/latency/magnitude sorts in the harness crates — ranks `f64`
//! samples with [`f64::total_cmp`], the IEEE 754 `totalOrder` predicate:
//! `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < NaN`. A degenerate sample
//! (a NaN score out of a zero-norm geometry, an ∞/∞ margin) therefore
//! sorts to the tail and *skews the reported statistic*, instead of
//! panicking the thread that measured it the way
//! `partial_cmp(..).expect(..)` did. Callers that must reject NaN should
//! filter before ranking, not rely on the sort to crash.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0 for slices shorter than 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Panics on empty
/// input. NaN samples rank after +∞ (see the module-level ordering
/// contract), so low percentiles of a mostly-clean series stay finite.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical CDF evaluated at `x`: the fraction of samples ≤ `x`.
pub fn ecdf(xs: &[f64], x: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&v| v <= x).count() as f64 / xs.len() as f64
}

/// Index of the maximum element. Panics on empty input.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable softmax.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    softmax_into(xs, &mut out);
    out
}

/// [`softmax`] into `out`, reusing its capacity.
pub fn softmax_into(xs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    out.extend(xs.iter().map(|x| (x - max).exp()));
    let sum: f64 = out.iter().sum();
    for p in out.iter_mut() {
        *p /= sum;
    }
}

/// Converts a power ratio to decibels.
pub fn to_db(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// Converts decibels to a power ratio.
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Classification accuracy from `(predicted, truth)` pairs, in `[0, 1]`.
pub fn accuracy(pairs: &[(usize, usize)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().filter(|(p, t)| p == t).count() as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // Order must not matter.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert!((percentile(&shuffled, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ranks_nan_after_infinity_instead_of_panicking() {
        let xs = [2.0, f64::NAN, 1.0, f64::INFINITY, 3.0];
        // NaN is the top of the total order: low percentiles are finite.
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!(percentile(&xs, 100.0).is_nan());
    }

    #[test]
    fn ecdf_counts_fraction() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ecdf(&xs, 0.5), 0.0);
        assert_eq!(ecdf(&xs, 2.0), 0.5);
        assert_eq!(ecdf(&xs, 10.0), 1.0);
    }

    #[test]
    fn argmax_first_max_on_tie_break() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large inputs.
        let q = softmax(&[1000.0, 1001.0]);
        assert!(q.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn db_round_trip() {
        for &db in &[-20.0, 0.0, 3.0, 30.0] {
            assert!((to_db(from_db(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn accuracy_fraction() {
        let pairs = [(0, 0), (1, 2), (3, 3), (4, 4)];
        assert!((accuracy(&pairs) - 0.75).abs() < 1e-12);
        assert_eq!(accuracy(&[]), 0.0);
    }
}
