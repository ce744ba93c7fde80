//! The over-the-air computation itself — Eqn 3 of the paper.
//!
//! For output class `r`, the transmitter sends its symbol stream once and
//! the receiver accumulates
//!
//! ```text
//! y_r = | Σ_i H_r(t_i) · x_i |
//! ```
//!
//! where `H_r(t_i)` is the channel the metasurface presents during symbol
//! `i`. What the antenna actually receives each chip is the superposition
//! of the programmed MTS path and the *environmental* channel, plus
//! receiver noise; the intra-symbol cancellation scheme (zero-mean chips +
//! π-flipped weights, `metaai_phy::shaping`) removes the environmental
//! term without any channel estimation.

use metaai_math::rng::SimRng;
use metaai_math::{CMat, CVec, C64};
use metaai_mts::array::MtsArray;
use metaai_mts::channel::{MtsLink, RealizationTable};
use metaai_phy::shaping;
use metaai_rf::environment::EnvChannel;
use metaai_rf::noise::Awgn;

/// Realizes the *physical* channel matrix `H[r, i]` a schedule produces on
/// a (possibly imperfect) array: per-atom fabrication phase errors and
/// stuck-at faults are applied on top of the programmed codes, then the
/// far-field sum and common amplitude `α_p`.
///
/// Each atom's term is read from a [`RealizationTable`] built once per
/// call, so an entry costs one gather-sum over its packed row of codes
/// instead of one `sin`/`cos` pair per atom. Runs sequentially on the
/// caller's thread.
pub fn realize_channels(
    schedule: &crate::mapper::WeightSchedule,
    link: &MtsLink,
    array: &MtsArray,
) -> CMat {
    let mut h = CMat::zeros(schedule.num_outputs(), schedule.num_symbols());
    RealizationTable::new(link, array).normalized_sums(schedule.packed(), h.as_mut_slice());
    for z in h.as_mut_slice() {
        *z = *z * link.alpha;
    }
    h
}

/// Mean per-chip MTS-path signal power of a channel matrix (the anchor for
/// SNR configuration; constellations are unit average power).
pub fn signal_power(h: &CMat) -> f64 {
    let n = (h.rows() * h.cols()) as f64;
    h.as_slice().iter().map(|z| z.norm_sq()).sum::<f64>() / n
}

/// Channel conditions during one inference.
#[derive(Clone, Debug)]
pub struct OtaConditions {
    /// Per-symbol environmental channel (static or dynamic).
    pub env: EnvChannel,
    /// Per-symbol amplitude factor on the MTS path (1.0 = clear;
    /// < 1 while an interferer obstructs it).
    pub mts_factor: Vec<f64>,
    /// Receiver noise.
    pub awgn: Awgn,
    /// Residual synchronization error, in whole symbols (signed: the
    /// weight schedule may lag or lead after preamble centring).
    pub sync_shift: isize,
    /// Whether intra-symbol multipath cancellation is active.
    pub cancellation: bool,
}

impl OtaConditions {
    /// Ideal conditions: no environment, no noise, perfect sync.
    pub fn ideal(n_symbols: usize) -> Self {
        OtaConditions {
            env: EnvChannel::silent(n_symbols),
            mts_factor: vec![1.0; n_symbols],
            awgn: Awgn::off(),
            sync_shift: 0,
            cancellation: true,
        }
    }

    /// Number of symbols these conditions cover.
    pub fn len(&self) -> usize {
        self.env.len()
    }

    /// True when the conditions cover no symbols.
    pub fn is_empty(&self) -> bool {
        self.env.is_empty()
    }
}

/// The receiver-side accumulator of Eqn 3.
pub struct OtaReceiver;

impl OtaReceiver {
    /// Simulates one transmission computing output `r` with channel row
    /// `h_row`, returning the complex accumulation before magnitude.
    pub fn accumulate(h_row: &[C64], x: &CVec, cond: &OtaConditions, rng: &mut SimRng) -> C64 {
        assert_eq!(h_row.len(), x.len(), "one channel per symbol");
        assert_eq!(cond.len(), x.len(), "conditions must cover all symbols");
        // Residual sync error: the weight schedule lags the data; the
        // equivalent pairing is the data cyclically shifted (the same
        // model CDFA trains against).
        let xs = x.cyclic_shift_signed(cond.sync_shift);

        let mut acc = C64::ZERO;
        for i in 0..xs.len() {
            let h = h_row[i] * cond.mts_factor[i];
            let he = cond.env.gain_at(i);
            if cond.cancellation {
                // Two zero-mean chips; the MTS flips its weight by π on
                // the second. The static-in-symbol environment cancels.
                for slot in 0..shaping::SLOTS_PER_SYMBOL {
                    let chip = shaping::shape_chip(xs[i], slot);
                    let w = shaping::weight_chip(h, slot);
                    acc += (he + w) * chip + cond.awgn.sample(rng);
                }
            } else {
                acc += (he + h) * xs[i] + cond.awgn.sample(rng);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mapper::WeightMapper;
    use metaai_mts::array::Prototype;

    fn mapper_and_array() -> (WeightMapper, MtsArray) {
        let config = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
        (WeightMapper::new(&config, &array), array)
    }

    fn random_weights(r: usize, u: usize, seed: u64) -> CMat {
        let mut rng = SimRng::seed_from_u64(seed);
        CMat::from_fn(r, u, |_, _| rng.complex_gaussian(1.0))
    }

    #[test]
    fn realized_channels_match_achieved_sums_on_clean_array() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(2, 4, 1);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        for r in 0..2 {
            for i in 0..4 {
                let expect = sched.achieved[(r, i)] * mapper.link.alpha;
                assert!(
                    (h[(r, i)] - expect).abs() < 1e-9,
                    "clean array must reproduce solver sums"
                );
            }
        }
    }

    #[test]
    fn phase_noise_perturbs_realized_channels() {
        let (mapper, mut array) = mapper_and_array();
        let w = random_weights(2, 3, 2);
        let sched = mapper.map(&w, C64::ZERO);
        let clean = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(3);
        array.inject_phase_noise(0.1, &mut rng);
        let noisy = realize_channels(&sched, &mapper.link, &array);
        assert!(clean != noisy);
        // Small phase noise: channels stay close in aggregate. (Individual
        // small weights can shift a lot relatively — the per-atom errors
        // are an absolute, not relative, perturbation of the sum.)
        let mut diff = clean.clone();
        diff.axpy(-1.0, &noisy);
        let rel = diff.fro_norm() / clean.fro_norm();
        assert!(rel < 0.1, "relative perturbation {rel}");
    }

    #[test]
    fn ideal_conditions_reproduce_the_digital_dot_product() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(3, 8, 4);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(5);
        let x = CVec::from_fn(8, |_| rng.complex_gaussian(1.0));
        let cond = OtaConditions::ideal(8);
        let mut rng2 = SimRng::seed_from_u64(6);
        let scores = crate::engine::OtaEngine::new(&h).scores(&x, &cond, &mut rng2);
        // Compare to the digital network output, up to the global scale
        // (α·σ) and the coherent gain of the chip combining.
        let gain = mapper.link.alpha * sched.scale * shaping::coherent_gain();
        for (r, &score) in scores.iter().enumerate() {
            let digital = w.row_vec(r).dot(&x).abs() * gain;
            let rel = (score - digital).abs() / digital;
            assert!(rel < 0.05, "output {r}: OTA {score} vs digital {digital}");
        }
    }

    #[test]
    fn cancellation_removes_static_environment() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(2, 6, 7);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(8);
        let x = CVec::from_fn(6, |_| rng.complex_gaussian(1.0));

        // A brutally strong static environment, comparable to the MTS path.
        let he = C64::from_polar(signal_power(&h).sqrt() * 2.0, 1.0);
        let mut cond = OtaConditions::ideal(6);
        cond.env = EnvChannel::constant(he, 6);

        let mut r1 = SimRng::seed_from_u64(9);
        let with_env = OtaReceiver::accumulate(h.row(0), &x, &cond, &mut r1);
        let clean_cond = OtaConditions::ideal(6);
        let mut r2 = SimRng::seed_from_u64(9);
        let without_env = OtaReceiver::accumulate(h.row(0), &x, &clean_cond, &mut r2);
        assert!(
            (with_env - without_env).abs() < 1e-9,
            "cancellation must make the env term vanish exactly"
        );
    }

    #[test]
    fn without_cancellation_environment_leaks() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(2, 6, 10);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(11);
        let x = CVec::from_fn(6, |_| rng.complex_gaussian(1.0));

        let he = C64::from_polar(signal_power(&h).sqrt(), 0.5);
        let mut cond = OtaConditions::ideal(6);
        cond.cancellation = false;
        cond.env = EnvChannel::constant(he, 6);
        let mut clean = OtaConditions::ideal(6);
        clean.cancellation = false;

        let mut r1 = SimRng::seed_from_u64(12);
        let with_env = OtaReceiver::accumulate(h.row(0), &x, &cond, &mut r1);
        let mut r2 = SimRng::seed_from_u64(12);
        let without = OtaReceiver::accumulate(h.row(0), &x, &clean, &mut r2);
        assert!(
            (with_env - without).abs() > 1e-3,
            "env must leak without the scheme"
        );
    }

    #[test]
    fn sync_shift_changes_the_result() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(2, 8, 13);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(14);
        let x = CVec::from_fn(8, |_| rng.complex_gaussian(1.0));
        let mut cond = OtaConditions::ideal(8);
        let mut r1 = SimRng::seed_from_u64(15);
        let aligned = OtaReceiver::accumulate(h.row(1), &x, &cond, &mut r1);
        cond.sync_shift = 3;
        let mut r2 = SimRng::seed_from_u64(15);
        let shifted = OtaReceiver::accumulate(h.row(1), &x, &cond, &mut r2);
        assert!((aligned - shifted).abs() > 1e-6);
    }

    #[test]
    fn blockage_attenuates_the_computation() {
        let (mapper, array) = mapper_and_array();
        let w = random_weights(2, 4, 16);
        let sched = mapper.map(&w, C64::ZERO);
        let h = realize_channels(&sched, &mapper.link, &array);
        let mut rng = SimRng::seed_from_u64(17);
        let x = CVec::from_fn(4, |_| rng.complex_gaussian(1.0));
        let mut cond = OtaConditions::ideal(4);
        cond.mts_factor = vec![0.3; 4];
        let mut r1 = SimRng::seed_from_u64(18);
        let blocked = OtaReceiver::accumulate(h.row(0), &x, &cond, &mut r1).abs();
        let mut r2 = SimRng::seed_from_u64(18);
        let clear = OtaReceiver::accumulate(h.row(0), &x, &OtaConditions::ideal(4), &mut r2).abs();
        assert!((blocked - 0.3 * clear).abs() / clear < 1e-9);
    }

    #[test]
    fn signal_power_is_mean_square() {
        let h = CMat::from_fn(1, 2, |_, c| {
            if c == 0 {
                C64::real(1.0)
            } else {
                C64::real(3.0)
            }
        });
        assert!((signal_power(&h) - 5.0).abs() < 1e-12);
    }
}
