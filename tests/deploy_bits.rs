//! Deployment bits recorded before realization and cold solves read their
//! geometry-only terms from per-atom tables (`RealizationTable`, the
//! `StateTable` phase-aligned init). The tables must be bitwise
//! invisible: every digest below was taken from the on-the-fly kernels.
//!
//! The arrays carry fabrication phase noise *and* stuck atoms, and the
//! realized schedules use 1-, 2- and 3-bit codes, so a table that ignores
//! `stuck_at` or reads the wrong bit depth changes a digest.

use metaai::config::SystemConfig;
use metaai::mapper::{WeightMapper, WeightSchedule};
use metaai::ota::realize_channels;
use metaai::pipeline::{redeploy_warm, MetaAiSystem};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, C64};
use metaai_mts::array::{MtsArray, Prototype};
use metaai_mts::atom::{PackedCodes, PhaseCode};
use metaai_mts::channel::MtsLink;
use metaai_mts::solver::{SolverScratch, WeightSolver};
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_sim::{
    realize_stack, StackGeometry, StackSchedule, StackSolver, StackSpec, StackWeights,
};

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

fn cmat_digest(h: &CMat) -> u64 {
    fnv(h.as_slice().iter().flat_map(c64_words))
}

/// Each code as `bits << 8 | index`, weight-major then atom order — the
/// words the digests were recorded over.
fn codes_words(codes: &PackedCodes) -> impl Iterator<Item = u64> + '_ {
    let bits = u64::from(codes.bits());
    codes
        .as_slice()
        .iter()
        .map(move |&index| (bits << 8) | u64::from(index))
}

fn random_weights(r: usize, u: usize, seed: u64) -> CMat {
    let mut rng = SimRng::seed_from_u64(seed);
    CMat::from_fn(r, u, |_, _| rng.complex_gaussian(1.0))
}

/// Fabrication phase noise plus ~10 % stuck atoms (stuck at 2-bit states,
/// whatever depth the schedule programs).
fn degrade(array: &mut MtsArray, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    array.inject_phase_noise(0.1, &mut rng);
    array.inject_stuck_faults(0.1, &mut rng);
}

/// The paper-default 256-atom array, degraded, with its default link.
fn degraded_paper_array() -> (SystemConfig, MtsArray, MtsLink) {
    let config = SystemConfig::paper_default();
    let mut array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
    degrade(&mut array, 7);
    let link = MtsLink::new(&array, config.tx, config.rx, config.freq_hz);
    (config, array, link)
}

/// A schedule of seeded random codes at one bit depth (realization reads
/// only the codes), drawn weight by weight in row-major order.
fn random_schedule(r: usize, u: usize, atoms: usize, bits: u8, seed: u64) -> WeightSchedule {
    let mut rng = SimRng::seed_from_u64(seed);
    let indices = (0..r * u * atoms)
        .map(|_| rng.below(1 << bits) as u8)
        .collect();
    let codes = PackedCodes::from_indices(indices, atoms, bits);
    WeightSchedule::new(codes, CMat::zeros(r, u), 1.0, 0.0)
}

#[test]
fn realized_channels_match_recorded_bits() {
    let (config, array, link) = degraded_paper_array();
    let mapper = WeightMapper::new(&config, &array);
    let solved = mapper.map(&random_weights(4, 24, 11), C64::ZERO);
    let digests = [
        cmat_digest(&realize_channels(&solved, &link, &array)),
        cmat_digest(&realize_channels(
            &random_schedule(3, 16, 256, 1, 12),
            &link,
            &array,
        )),
        cmat_digest(&realize_channels(
            &random_schedule(3, 16, 256, 3, 13),
            &link,
            &array,
        )),
    ];
    const RECORDED: [u64; 3] = [
        0x2e70_885c_de26_1982,
        0x0946_bfcc_ad45_e2fa,
        0x275f_7c43_5505_de8c,
    ];
    assert_eq!(digests, RECORDED);
}

#[test]
fn link_channel_matches_recorded_bits() {
    let (_, mut array, link) = degraded_paper_array();
    let mut rng = SimRng::seed_from_u64(14);
    let codes: Vec<PhaseCode> = (0..array.num_atoms())
        .map(|_| PhaseCode::two_bit(rng.below(4) as u8))
        .collect();
    array.configure(&codes);
    const RECORDED: [u64; 2] = [0x3f09_7061_a3e0_1d99, 0x3f39_f859_131b_5e08];
    assert_eq!(c64_words(&link.channel(&array)), RECORDED);
}

#[test]
fn cold_map_matches_recorded_bits() {
    let (config, array, _) = degraded_paper_array();
    let mapper = WeightMapper::new(&config, &array);
    let sched = mapper.map(&random_weights(10, 48, 21), C64::new(0.5, -0.25));
    let digest = fnv(codes_words(sched.packed())
        .chain(sched.achieved.as_slice().iter().flat_map(c64_words))
        .chain([sched.scale.to_bits(), sched.rms_residual.to_bits()]));
    const RECORDED: u64 = 0x0c1d_44e2_ebc2_462e;
    assert_eq!(digest, RECORDED);
}

#[test]
fn joint_solve_matches_recorded_bits() {
    let mut rng = SimRng::seed_from_u64(31);
    let phasors: Vec<Vec<C64>> = (0..3)
        .map(|_| (0..96).map(|_| rng.unit_phasor()).collect())
        .collect();
    let solver = WeightSolver::joint(phasors, 2);
    let table = solver.state_table();
    let mut scratch = SolverScratch::new();
    let words: Vec<u64> = (0..8)
        .flat_map(|_| {
            let targets: Vec<C64> = (0..3)
                .map(|_| C64::from_polar(25.0 * rng.uniform(), rng.phase()))
                .collect();
            let res = solver.solve_with(&targets, &table, &mut scratch);
            res.codes
                .iter()
                .map(|c| u64::from(c.index))
                .chain(res.achieved.iter().flat_map(c64_words))
                .chain([res.residual.to_bits(), res.sweeps as u64])
                .collect::<Vec<_>>()
        })
        .collect();
    const RECORDED: u64 = 0xf9be_8798_565f_9055;
    assert_eq!(fnv(words), RECORDED);
}

fn stack_digest(schedule: &StackSchedule) -> u64 {
    fnv(schedule.layers.iter().flat_map(|l| {
        codes_words(l.packed())
            .chain(l.achieved.as_slice().iter().flat_map(c64_words))
            .collect::<Vec<_>>()
    }))
}

#[test]
fn two_layer_stack_matches_recorded_bits() {
    let config = SystemConfig::paper_default();
    let spec = StackSpec::new(
        config.prototype,
        config.freq_hz,
        config.tx,
        config.rx,
        config.mts_center,
        2,
        128,
    );
    let mut geometry = StackGeometry::build(&spec);
    for (l, surface) in geometry.surfaces.iter_mut().enumerate() {
        degrade(surface, 40 + l as u64);
    }
    let weights = StackWeights::from_effective(&random_weights(4, 20, 41), 2);
    let schedule = StackSolver::new(&geometry, config.kappa).solve(&weights.factors, C64::ZERO);
    let digests = [
        stack_digest(&schedule),
        cmat_digest(&realize_stack(&geometry, &schedule)),
    ];
    const RECORDED: [u64; 2] = [0xd461_cf7b_c440_d0b5, 0xe6a8_b360_e0fa_542c];
    assert_eq!(digests, RECORDED);
}

/// Digest of a deployed system: its realized channels, every layer's
/// codes, the noise floor and the realization error.
fn system_digest(sys: &MetaAiSystem) -> u64 {
    let layers = &sys.stack.schedule.layers;
    fnv(sys
        .channels
        .as_slice()
        .iter()
        .flat_map(c64_words)
        .chain(layers.iter().flat_map(|l| codes_words(l.packed())))
        .chain([sys.noise_floor.to_bits(), sys.realization_error().to_bits()]))
}

/// The builder's own deploy at paper defaults (256 atoms, fabrication
/// noise on), then a warm re-solve to a moved receiver with an Eqn-8
/// offset — for the single surface and for a 2-layer stack. Recorded
/// while the single surface still had a deployment path of its own.
#[test]
fn paper_default_deploy_and_warm_redeploy_match_recorded_bits() {
    let net = ComplexLnn::from_weights(random_weights(10, 60, 51));
    let moved = SystemConfig::paper_default().with_rx_at(3.0, 43.0);
    let mut scratch = SolverScratch::new();
    let digests: Vec<u64> = [(1, 256), (2, 128)]
        .into_iter()
        .flat_map(|(layers, atoms)| {
            let sys = MetaAiSystem::builder()
                .layers(layers)
                .num_atoms(atoms)
                .deploy(net.clone());
            let warm = redeploy_warm(&sys, &moved, C64::new(8.0, 3.0), &mut scratch);
            [system_digest(&sys), system_digest(&warm)]
        })
        .collect();
    const RECORDED: [u64; 4] = [
        0x689a_93c0_9c8b_bd74,
        0x98ad_ba97_46a9_2992,
        0xf4e5_e02a_b416_4bd4,
        0x9a00_1631_5cf6_38b5,
    ];
    assert_eq!(digests, RECORDED);
}
