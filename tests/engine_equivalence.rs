//! Property tests pinning the batched inference engine to the scalar
//! single-sample path: same channels, same conditions, same RNG stream —
//! the scores must match *bitwise*, across sync shifts, cancellation
//! on/off, and nonzero receiver noise. Plus: batch results must be
//! independent of the rayon worker count.

use metaai::engine::OtaEngine;
use metaai::ota::OtaConditions;
use metaai_math::rng::SimRng;
use metaai_math::stats::argmax;
use metaai_math::{CMat, CVec};
use metaai_rf::environment::EnvChannel;
use metaai_rf::noise::Awgn;
use proptest::prelude::*;

mod common;
use common::with_workers;

/// A random channel matrix, input batch, and conditions drawn from `seed`.
fn random_setup(
    seed: u64,
    rows: usize,
    u: usize,
    batch: usize,
    shift: isize,
    cancellation: bool,
    noisy: bool,
) -> (CMat, Vec<CVec>, OtaConditions) {
    let mut rng = SimRng::derive(seed, "equivalence-setup");
    let h = CMat::from_fn(rows, u, |_, _| rng.complex_gaussian(1.0));
    let inputs: Vec<CVec> = (0..batch)
        .map(|_| CVec::from_fn(u, |_| rng.complex_gaussian(1.0)))
        .collect();
    let cond = OtaConditions {
        env: EnvChannel::constant(rng.complex_gaussian(0.4), u),
        mts_factor: (0..u).map(|_| 0.5 + rng.uniform()).collect(),
        awgn: Awgn {
            variance: if noisy { 0.05 } else { 0.0 },
        },
        sync_shift: shift,
        cancellation,
    };
    (h, inputs, cond)
}

proptest! {
    /// Batched scores bit-match the scalar `OtaEngine::scores` path under
    /// the same per-sample RNG stream — for every condition regime.
    #[test]
    fn batched_scores_bit_match_scalar(
        seed in 0u64..1_000,
        rows in 1usize..5,
        u in 1usize..24,
        batch in 1usize..12,
        shift in -50isize..50,
        canc in 0u8..2,
        noisy in 0u8..2,
    ) {
        let (h, inputs, cond) =
            random_setup(seed, rows, u, batch, shift, canc == 1, noisy == 1);
        let stream = SimRng::stream_id("equivalence");
        let engine = OtaEngine::new(&h);
        let batched = engine.batch_map(&inputs, seed, stream, |_| cond.clone(), <[f64]>::to_vec);
        prop_assert_eq!(batched.len(), inputs.len());
        for (i, scores) in batched.iter().enumerate() {
            let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
            let scalar = engine.scores(&inputs[i], &cond, &mut rng);
            prop_assert_eq!(scores.len(), scalar.len());
            for (a, b) in scores.iter().zip(&scalar) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Same contract when the condition builder itself consumes RNG draws
    /// before scoring (the `default_conditions` pattern): the batched path
    /// must consume the per-sample stream exactly as the scalar path does.
    #[test]
    fn rng_consuming_condition_builders_stay_aligned(
        seed in 0u64..1_000,
        rows in 1usize..4,
        u in 2usize..16,
        batch in 1usize..8,
    ) {
        let (h, inputs, base) = random_setup(seed, rows, u, batch, 0, true, true);
        let make_cond = |rng: &mut SimRng| {
            let mut cond = base.clone();
            cond.sync_shift = rng.below(u) as isize - (u / 2) as isize;
            cond
        };
        let stream = SimRng::stream_id("equivalence-cond");
        let engine = OtaEngine::new(&h);
        let batched = engine.batch_map(&inputs, seed, stream, make_cond, <[f64]>::to_vec);
        for (i, scores) in batched.iter().enumerate() {
            let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
            let cond = make_cond(&mut rng);
            let scalar = engine.scores(&inputs[i], &cond, &mut rng);
            for (a, b) in scores.iter().zip(&scalar) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The fused SoA kernel bit-matches the scalar reference kernel
    /// (`scores_scalar`, the pre-fusion per-row loop) across sync shifts,
    /// cancellation on/off, and noise on/off — and consumes the RNG
    /// stream identically, so everything downstream of a score stays
    /// bitwise reproducible too.
    #[test]
    fn fused_scores_bit_match_the_scalar_reference(
        seed in 0u64..1_000,
        rows in 1usize..6,
        u in 1usize..24,
        batch in 1usize..8,
        shift in -50isize..50,
        canc in 0u8..2,
        noisy in 0u8..2,
    ) {
        let (h, inputs, cond) =
            random_setup(seed, rows, u, batch, shift, canc == 1, noisy == 1);
        let engine = OtaEngine::new(&h);
        for x in &inputs {
            let mut fused_rng = SimRng::seed_from_u64(seed);
            let mut scalar_rng = SimRng::seed_from_u64(seed);
            let fused = engine.scores(x, &cond, &mut fused_rng);
            let scalar = engine.scores_scalar(x, &cond, &mut scalar_rng);
            prop_assert_eq!(fused.len(), scalar.len());
            for (a, b) in fused.iter().zip(&scalar) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // Both kernels must leave the RNG in the same state.
            prop_assert_eq!(fused_rng.uniform().to_bits(), scalar_rng.uniform().to_bits());
        }
    }

    /// Lending precomputed SoA planes (`with_planes`, the serving path)
    /// changes nothing about the scores vs splitting them at construction.
    #[test]
    fn borrowed_planes_bit_match_owned_planes(
        seed in 0u64..1_000,
        rows in 1usize..5,
        u in 1usize..20,
        shift in -30isize..30,
        noisy in 0u8..2,
    ) {
        let (h, inputs, cond) = random_setup(seed, rows, u, 2, shift, true, noisy == 1);
        let planes = metaai_math::CPlanes::from_cmat(&h);
        let owned = OtaEngine::new(&h);
        let lent = OtaEngine::with_planes(&h, &planes);
        for x in &inputs {
            let mut r1 = SimRng::seed_from_u64(seed);
            let mut r2 = SimRng::seed_from_u64(seed);
            let a = owned.scores(x, &cond, &mut r1);
            let b = lent.scores(x, &cond, &mut r2);
            for (s1, s2) in a.iter().zip(&b) {
                prop_assert_eq!(s1.to_bits(), s2.to_bits());
            }
        }
    }

    /// With noise off, trace mode reproduces the untraced scores bitwise —
    /// the two paths share their chip arithmetic and cannot drift.
    #[test]
    fn traced_scores_bit_match_untraced_without_noise(
        seed in 0u64..1_000,
        rows in 1usize..5,
        u in 1usize..20,
        shift in -30isize..30,
    ) {
        let (h, inputs, mut cond) = random_setup(seed, rows, u, 1, shift, true, false);
        cond.cancellation = true;
        let engine = OtaEngine::new(&h);
        let mut r1 = SimRng::seed_from_u64(seed);
        let mut r2 = SimRng::seed_from_u64(seed);
        let trace = engine.traced(&inputs[0], &cond, &mut r1);
        let plain = engine.scores(&inputs[0], &cond, &mut r2);
        prop_assert_eq!(trace.scores.len(), plain.len());
        for (a, b) in trace.scores.iter().zip(&plain) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(trace.rows.len(), rows * u);
    }
}

/// Batch results are bitwise independent of the rayon worker count: each
/// sample owns a counter-derived RNG, so scheduling cannot leak into the
/// arithmetic.
#[test]
fn batch_results_are_worker_count_independent() {
    let (h, inputs, cond) = random_setup(99, 6, 32, 80, -3, true, true);
    let engine = OtaEngine::new(&h);
    let run = || {
        engine.batch_map(
            &inputs,
            7,
            SimRng::stream_id("threads"),
            |_| cond.clone(),
            |scores| {
                (
                    argmax(scores),
                    scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                )
            },
        )
    };
    let default_threads = run();
    let single = with_workers(1, run);
    let four = with_workers(4, run);
    assert_eq!(default_threads, single);
    assert_eq!(default_threads, four);
}
