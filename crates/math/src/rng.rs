//! Deterministic random sources.
//!
//! Every stochastic component of the simulation (datasets, channel fading,
//! noise, synchronization error) draws from a seeded [`SimRng`] so that
//! experiments are exactly reproducible. Derived seeds let independent
//! subsystems share one experiment seed without correlating their streams.
//!
//! Every draw consumes a fixed number of raw `u64`s from the underlying
//! xoshiro256++ stream: one for [`uniform`](SimRng::uniform),
//! [`chance`](SimRng::chance),
//! [`uniform_range`](SimRng::uniform_range) (none for a degenerate range),
//! [`below`](SimRng::below) (a multiply-shift, no rejection loop) and
//! [`phase`](SimRng::phase); two for [`normal`](SimRng::normal) (Box–Muller;
//! none when `std <= 0`) and [`standard_normal`](SimRng::standard_normal);
//! `n − 1` for [`permutation`](SimRng::permutation). Only
//! [`gamma`](SimRng::gamma) (rejection sampling) varies. A generator whose draw count
//! is a function of its parameters alone can therefore checkpoint a stream:
//! clone it, [`skip`](SimRng::skip) one item's draws, and resume each item
//! from its own clone.

use crate::complex::C64;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use rand_distr::{Distribution, Gamma, Normal};

/// A seeded pseudo-random source used throughout the workspace.
///
/// Cloning copies the stream position; two generators compare equal when
/// their next draws are the same.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream for subsystem `label`.
    ///
    /// Uses SplitMix64 over `seed ⊕ hash(label)` so the same experiment seed
    /// produces uncorrelated dataset/channel/noise streams.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut z = seed ^ Self::stream_id(label);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// FNV-1a hash of a stream label. Compute this once *outside* a hot
    /// loop, then derive per-item generators with
    /// [`SimRng::derive_indexed`] — together they replace the old
    /// `derive(seed, &format!("{label}-{i}"))` pattern, which formatted and
    /// hashed a fresh string per sample.
    pub fn stream_id(label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Derives the `index`-th generator of stream `stream` under `seed` —
    /// a counter-based, allocation-free child stream for per-sample use in
    /// batch loops. The three words are combined with distinct odd
    /// multipliers and rotations, then finalized SplitMix64-style, so
    /// neighbouring indices land in uncorrelated states.
    pub fn derive_indexed(seed: u64, stream: u64, index: u64) -> Self {
        let mut z = seed
            ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23)
            ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03).rotate_left(47);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Advances the stream past `n` raw draws, leaving it where `n` calls
    /// of the underlying generator would.
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.inner.next_u64();
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`; returns `lo` for a degenerate range.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.random_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`. Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.random_range(0..n)
    }

    /// Standard normal sample.
    pub fn standard_normal(&mut self) -> f64 {
        Normal::new(0.0, 1.0)
            .expect("valid")
            .sample(&mut self.inner)
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        if std <= 0.0 {
            return mean;
        }
        Normal::new(mean, std)
            .expect("valid normal")
            .sample(&mut self.inner)
    }

    /// Gamma sample with the given shape and scale.
    ///
    /// The paper observes (Fig 12) that coarse-detection synchronization
    /// error follows a Gamma distribution; CDFA samples its training shifts
    /// from this.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        Gamma::new(shape, scale)
            .expect("valid gamma parameters")
            .sample(&mut self.inner)
    }

    /// Circularly-symmetric complex Gaussian with total variance `var`
    /// (i.e. `var/2` per real dimension). This is the AWGN model.
    pub fn complex_gaussian(&mut self, var: f64) -> C64 {
        let s = (var / 2.0).sqrt();
        C64::new(self.normal(0.0, s), self.normal(0.0, s))
    }

    /// A uniformly distributed phase in `[0, 2π)`.
    pub fn phase(&mut self) -> f64 {
        self.uniform_range(0.0, std::f64::consts::TAU)
    }

    /// A unit phasor with uniform phase.
    pub fn unit_phasor(&mut self) -> C64 {
        C64::cis(self.phase())
    }

    /// Fisher–Yates shuffle of index order `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.inner.random_range(0..=i);
            idx.swap(i, j);
        }
        idx
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = SimRng::derive(7, "dataset");
        let mut b = SimRng::derive(7, "channel");
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2, "derived streams should not track each other");
    }

    #[test]
    fn indexed_streams_are_deterministic_and_distinct() {
        let stream = SimRng::stream_id("ota-batch");
        let mut a = SimRng::derive_indexed(7, stream, 3);
        let mut b = SimRng::derive_indexed(7, stream, 3);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
        // Neighbouring indices, other streams, and other seeds all diverge.
        let mut c = SimRng::derive_indexed(7, stream, 4);
        let mut d = SimRng::derive_indexed(7, SimRng::stream_id("other"), 3);
        let mut e = SimRng::derive_indexed(8, stream, 3);
        let first = a.uniform();
        assert!(first != c.uniform());
        assert!(first != d.uniform());
        assert!(first != e.uniform());
    }

    #[test]
    fn indexed_streams_do_not_track_each_other() {
        let stream = SimRng::stream_id("s");
        let mut a = SimRng::derive_indexed(1, stream, 0);
        let mut b = SimRng::derive_indexed(1, stream, 1);
        let same = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2, "indexed streams should be uncorrelated");
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = SimRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.normal(1.5, 2.0)).collect();
        let m = crate::stats::mean(&xs);
        let s = crate::stats::std_dev(&xs);
        assert!((m - 1.5).abs() < 0.1, "mean {m}");
        assert!((s - 2.0).abs() < 0.1, "std {s}");
    }

    #[test]
    fn gamma_mean_is_shape_times_scale() {
        let mut rng = SimRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.gamma(2.0, 1.5)).collect();
        assert!((crate::stats::mean(&xs) - 3.0).abs() < 0.1);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn complex_gaussian_variance() {
        let mut rng = SimRng::seed_from_u64(4);
        let var: f64 = (0..20_000)
            .map(|_| rng.complex_gaussian(2.0).norm_sq())
            .sum::<f64>()
            / 20_000.0;
        assert!((var - 2.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(5);
        let p = rng.permutation(100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn unit_phasor_is_unit() {
        let mut rng = SimRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!((rng.unit_phasor().abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn skip_leaves_the_state_of_as_many_draws() {
        let mut drawn = SimRng::seed_from_u64(9);
        let mut skipped = drawn.clone();
        // One draw each of every fixed-count kind: 1 + 1 + 1 + 1 + 2 + 2 +
        // 4 raw draws, and none for a degenerate range or zero std.
        drawn.uniform();
        drawn.uniform_range(-1.0, 1.0);
        drawn.uniform_range(1.0, 1.0);
        drawn.below(5);
        drawn.phase();
        drawn.normal(0.0, 3.0);
        drawn.normal(1.0, 0.0);
        drawn.standard_normal();
        drawn.complex_gaussian(1.0);
        assert_ne!(drawn, skipped);
        skipped.skip(12);
        assert_eq!(drawn, skipped);
        assert_eq!(drawn.uniform().to_bits(), skipped.uniform().to_bits());
        skipped.skip(0);
        assert_eq!(drawn, skipped);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
