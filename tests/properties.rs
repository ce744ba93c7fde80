//! Property-based tests over cross-crate invariants.

use metaai_math::fft::{fft, ifft};
use metaai_math::rng::SimRng;
use metaai_math::{CVec, C64};
use metaai_mts::atom::PhaseCode;
use metaai_mts::solver::{BatchOutput, SolverScratch, WeightSolver};
use metaai_phy::bits::{bits_to_bytes, bytes_to_bits};
use metaai_phy::shaping;
use metaai_phy::Modulation;
use proptest::prelude::*;

proptest! {
    /// Bit packing is a bijection for arbitrary byte payloads.
    #[test]
    fn bits_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    /// Every modulation demodulates its own output exactly for arbitrary
    /// payloads (the noiseless channel is error-free).
    #[test]
    fn modulation_round_trip(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        scheme in 0usize..5,
    ) {
        let m = Modulation::all()[scheme];
        let bits = bytes_to_bits(&data);
        let symbols = m.modulate(&bits);
        let back = m.demodulate(&symbols);
        prop_assert_eq!(&back[..bits.len()], &bits[..]);
    }

    /// FFT/IFFT is an identity for arbitrary power-of-two signals.
    #[test]
    fn fft_round_trip(
        parts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 32..=32)
    ) {
        let orig: Vec<C64> = parts.iter().map(|&(a, b)| C64::new(a, b)).collect();
        let mut buf = orig.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (x, y) in buf.iter().zip(&orig) {
            prop_assert!((*x - *y).abs() < 1e-9);
        }
    }

    /// Intra-symbol cancellation removes ANY static channel exactly while
    /// preserving the flipped MTS term.
    #[test]
    fn cancellation_identity(
        he_re in -10.0f64..10.0, he_im in -10.0f64..10.0,
        w_re in -10.0f64..10.0, w_im in -10.0f64..10.0,
        x_re in -2.0f64..2.0, x_im in -2.0f64..2.0,
    ) {
        let he = C64::new(he_re, he_im);
        let w = C64::new(w_re, w_im);
        let x = C64::new(x_re, x_im);
        let received: Vec<C64> = (0..shaping::SLOTS_PER_SYMBOL)
            .map(|s| (he + shaping::weight_chip(w, s)) * shaping::shape_chip(x, s))
            .collect();
        let combined = shaping::combine(&received);
        let expected = w * x * shaping::coherent_gain();
        prop_assert!((combined - expected).abs() < 1e-9 * (1.0 + expected.abs()));
    }

    /// Cyclic shifts compose additively modulo the length.
    #[test]
    fn cyclic_shift_group_law(
        n in 2usize..40,
        a in 0usize..100,
        b in 0usize..100,
    ) {
        let v = CVec::from_fn(n, |i| C64::new(i as f64, (i * i) as f64));
        let lhs = v.cyclic_shift(a).cyclic_shift(b);
        let rhs = v.cyclic_shift((a + b) % n);
        prop_assert_eq!(lhs, rhs);
    }

    /// Signed shifts invert: shifting by `+k` then `−k` is the identity.
    #[test]
    fn signed_shift_inverts(n in 1usize..40, k in -50isize..50) {
        let v = CVec::from_fn(n, |i| C64::cis(i as f64));
        prop_assert_eq!(v.cyclic_shift_signed(k).cyclic_shift_signed(-k), v);
    }

    /// Phase quantization never errs by more than half a step.
    #[test]
    fn quantize_phase_bound(target in -10.0f64..10.0, bits in 1u8..=3) {
        let q = PhaseCode::quantize(target, bits).phase();
        let step = std::f64::consts::TAU / (1usize << bits) as f64;
        let mut err = (target - q).rem_euclid(std::f64::consts::TAU);
        if err > std::f64::consts::PI {
            err = std::f64::consts::TAU - err;
        }
        prop_assert!(err <= step / 2.0 + 1e-9);
    }
}

/// The solver's residual is always at most the target magnitude (solving
/// toward zero is trivially available by self-cancelling the atoms), and
/// the achieved sum is reproducible from the returned codes.
#[test]
fn solver_residual_and_reconstruction() {
    let mut rng = SimRng::seed_from_u64(5);
    let phasors: Vec<C64> = (0..64).map(|_| rng.unit_phasor()).collect();
    let solver = WeightSolver::single(phasors.clone(), 2);
    let targets: Vec<C64> = (0..20)
        .map(|k| C64::from_polar(k as f64 * 2.0, rng.phase()))
        .collect();
    let n = targets.len();
    let mut codes = vec![0; n * phasors.len()];
    let mut achieved = vec![C64::ZERO; n];
    let mut residual = vec![0.0; n];
    let out = BatchOutput {
        codes: &mut codes,
        achieved: &mut achieved,
        residual: &mut residual,
    };
    solver.solve_batch(
        &targets,
        &solver.state_table(),
        &mut SolverScratch::new(),
        out,
    );
    for (j, target) in targets.into_iter().enumerate() {
        let rebuilt: C64 = phasors
            .iter()
            .zip(&codes[j * phasors.len()..])
            .map(|(&u, &index)| u * C64::cis(PhaseCode::two_bit(index).phase()))
            .sum();
        assert!((rebuilt - achieved[j]).abs() < 1e-9);
        assert!(
            residual[j] <= target.abs().max(2.0),
            "residual {} for |t| = {}",
            residual[j],
            target.abs()
        );
    }
}

/// Magnitude-softmax loss is invariant to a global phase rotation of the
/// logits — the property that makes the common path phase irrelevant.
#[test]
fn loss_global_phase_invariance() {
    let mut rng = SimRng::seed_from_u64(8);
    for _ in 0..50 {
        let z = CVec::from_fn(5, |_| rng.complex_gaussian(1.0));
        let rot = rng.unit_phasor();
        let zr = CVec::from_fn(5, |i| z[i] * rot);
        let a = metaai_nn::loss::magnitude_ce(&z, 2);
        let b = metaai_nn::loss::magnitude_ce(&zr, 2);
        assert!((a.loss - b.loss).abs() < 1e-9);
        assert_eq!(a.predicted, b.predicted);
    }
}

proptest! {
    /// OFDM with a per-subcarrier channel is exactly diagonal: each bin is
    /// scaled by its own gain, no inter-carrier interference.
    #[test]
    fn ofdm_channel_is_diagonal(
        seeds in proptest::collection::vec(0u64..1000, 4..=4),
    ) {
        use metaai_phy::ofdm::{apply_frequency_channel, demodulate_block, modulate_block, OfdmConfig};
        let cfg = OfdmConfig::for_parallelism(5);
        let mut rng = SimRng::seed_from_u64(seeds[0]);
        let symbols: Vec<C64> = (0..cfg.active).map(|_| rng.complex_gaussian(1.0)).collect();
        let gains: Vec<C64> = (0..cfg.active).map(|_| rng.complex_gaussian(1.0)).collect();
        let block = modulate_block(&cfg, &symbols);
        let faded = apply_frequency_channel(&cfg, &block, &gains);
        let rx = demodulate_block(&cfg, &faded);
        for ((r, s), g) in rx.iter().zip(&symbols).zip(&gains) {
            prop_assert!((*r - *s * *g).abs() < 1e-9);
        }
    }

    /// Gauss–Markov fading interpolates between white noise (ρ→0) and a
    /// frozen channel (ρ→1): higher coherence time never lowers lag-1
    /// autocorrelation.
    #[test]
    fn fading_coherence_orders_autocorrelation(seed in 0u64..500) {
        use metaai_rf::fading::{autocorrelation, GaussMarkovFading};
        let make = |coh: f64| GaussMarkovFading { rms: 1.0, coherence_s: coh, step_s: 1e-6 };
        let fast = make(2e-6).realize(4000, &mut SimRng::seed_from_u64(seed));
        let slow = make(200e-6).realize(4000, &mut SimRng::seed_from_u64(seed));
        prop_assert!(autocorrelation(&slow, 1) > autocorrelation(&fast, 1) - 0.05);
    }

    /// Controller pattern serialization round-trips for any 2-bit
    /// configuration.
    #[test]
    fn control_pattern_round_trip(
        states in proptest::collection::vec(0u8..4, 256..=256),
    ) {
        use metaai_mts::control::ControlModel;
        let c = ControlModel::default();
        prop_assert_eq!(c.decode_pattern(&c.pattern_bits(&states)), states);
    }

    /// The energy model is monotone in payload size for every platform.
    #[test]
    fn energy_monotone_in_symbols(sym_a in 50usize..500, extra in 1usize..500) {
        use metaai::energy::{estimate, DeviceConstants, Model, Platform, Workload};
        use metaai_mts::control::ControlModel;
        let k = DeviceConstants::default();
        let c = ControlModel::default();
        let wl = |s: usize| Workload {
            symbols: s,
            classes: 10,
            symbol_rate: 1e6,
            measured_server_s: None,
        };
        for (p, m) in [
            (Platform::Cpu, Model::Lnn),
            (Platform::Gpu, Model::ResNet18),
            (Platform::MetaAi, Model::Lnn),
        ] {
            let small = estimate(p, m, &wl(sym_a), &k, &c);
            let large = estimate(p, m, &wl(sym_a + extra), &k, &c);
            prop_assert!(large.total_j > small.total_j);
            prop_assert!(large.total_s > small.total_s);
        }
    }

    /// Dataset generation is a pure function of (dataset, scale, seed).
    #[test]
    fn dataset_generation_is_pure(seed in 0u64..50) {
        use metaai_datasets::{generate, DatasetId, Scale};
        let a = generate(DatasetId::Afhq, Scale::Quick, seed);
        let b = generate(DatasetId::Afhq, Scale::Quick, seed);
        prop_assert_eq!(a.train.samples, b.train.samples);
        prop_assert_eq!(a.test.labels, b.test.labels);
    }
}
