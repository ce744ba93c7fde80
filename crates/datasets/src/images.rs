//! Smooth random-field image generator.
//!
//! Class prototypes are sums of low-frequency 2-D cosines — smooth,
//! image-like patterns with broad spatial structure. Each class owns
//! `modes` sub-prototypes scattered around its mean (making the class
//! multimodal); a sample picks a mode, adds a smooth per-sample
//! deformation field and per-pixel noise, then quantizes to bytes.

use crate::partition::{pixel_noise_draws, render_partition};
use crate::spec::DatasetSpec;
use crate::BytesSplit;
use metaai_math::rng::SimRng;

/// A smooth random field over a `w × h` grid built from explicit spatial
/// frequencies (in cycles across the grid), with random phases and
/// amplitudes, normalized to roughly unit RMS.
pub fn smooth_field_with_freqs(
    w: usize,
    h: usize,
    freqs: &[(f64, f64)],
    rng: &mut SimRng,
) -> Vec<f64> {
    let mut field = vec![0.0; w * h];
    for &(cx, cy) in freqs {
        let fx = cx * std::f64::consts::TAU / w as f64;
        let fy = cy * std::f64::consts::TAU / h as f64;
        let phase = rng.phase();
        let amp = rng.uniform_range(0.5, 1.0);
        for y in 0..h {
            for x in 0..w {
                field[y * w + x] += amp * (fx * x as f64 + fy * y as f64 + phase).cos();
            }
        }
    }
    let rms = (field.iter().map(|v| v * v).sum::<f64>() / field.len() as f64).sqrt();
    if rms > 0.0 {
        for v in &mut field {
            *v /= rms;
        }
    }
    field
}

/// A smooth random field with `terms` broadband low frequencies (up to ~3
/// cycles across the grid).
pub fn smooth_field(w: usize, h: usize, terms: usize, rng: &mut SimRng) -> Vec<f64> {
    let freqs: Vec<(f64, f64)> = (0..terms)
        .map(|_| (rng.uniform_range(0.2, 3.0), rng.uniform_range(0.2, 3.0)))
        .collect();
    smooth_field_with_freqs(w, h, &freqs, rng)
}

/// Draws a class-specific frequency signature: `terms` spatial frequencies
/// sampled from a pool keyed to the class index.
///
/// Real object categories occupy distinct spatial-frequency bands (stroke
/// widths, texture scales); giving each synthetic class its own signature
/// reproduces that, and it is what makes the magnitude readout's
/// approximate shift-invariance (the property CDFA training exploits)
/// achievable at high accuracy.
pub fn class_frequency_signature(class: usize, terms: usize, rng: &mut SimRng) -> Vec<(f64, f64)> {
    // A pool of grid frequencies; each class anchors on a distinct subset.
    let pool: Vec<(f64, f64)> = (0..6)
        .flat_map(|i| (0..6).map(move |j| (0.4 + 0.5 * i as f64, 0.4 + 0.5 * j as f64)))
        .collect();
    let stride = 7; // co-prime with 36 → classes walk distinct subsets
    (0..terms)
        .map(|t| {
            let idx = (class * 5 + t * stride) % pool.len();
            let (cx, cy) = pool[idx];
            // Small jitter so signatures are not exactly on the grid.
            (
                cx + rng.uniform_range(-0.1, 0.1),
                cy + rng.uniform_range(-0.1, 0.1),
            )
        })
        .collect()
}

/// A binary foreground mask selecting the top `frac` of a smooth field —
/// the "stroke" pixels that carry class information, like the pen strokes
/// of a digit against a shared background.
pub fn foreground_mask(w: usize, h: usize, frac: f64, rng: &mut SimRng) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&frac), "fraction in [0,1]");
    let field = smooth_field(w, h, 4, rng);
    let mut sorted = field.clone();
    sorted.sort_by(f64::total_cmp);
    let cut_idx = ((1.0 - frac) * (sorted.len() - 1) as f64).round() as usize;
    let threshold = sorted[cut_idx];
    field
        .into_iter()
        .map(|v| if v >= threshold { 1.0 } else { 0.0 })
        .collect()
}

/// Per-class sub-prototypes in pixel units (mean 128).
///
/// Class information lives only in a per-mode *foreground* region (like
/// digit strokes); the rest of the image is a background shared by every
/// class. Concentrating the evidence this way is what separates
/// continuous-weight training from discrete-from-the-start training
/// (Table 1): fixed-magnitude discrete weights cannot attenuate the
/// uninformative background pixels, so they pay a noise floor that
/// continuous weights avoid.
fn class_prototypes(spec: &DatasetSpec, rng: &mut SimRng) -> Vec<Vec<Vec<f64>>> {
    let n = spec.feature_bytes();
    let background = smooth_field(spec.width, spec.height, 5, rng);
    (0..spec.classes)
        .map(|class| {
            let signature = class_frequency_signature(class, 6, rng);
            let base = smooth_field_with_freqs(spec.width, spec.height, &signature, rng);
            (0..spec.modes)
                .map(|_| {
                    let offset = smooth_field(spec.width, spec.height, 4, rng);
                    let mask = foreground_mask(spec.width, spec.height, spec.foreground, rng);
                    (0..n)
                        .map(|i| {
                            let class_pattern = base[i] + spec.mode_spread * offset[i];
                            // Nearly flat shared background: like the
                            // empty canvas behind a digit's strokes. A
                            // flat background keeps cyclically shifted
                            // samples correlated, which is what lets the
                            // magnitude readout tolerate residual sync
                            // error after CDFA training.
                            128.0 + spec.contrast * (0.15 * background[i] + mask[i] * class_pattern)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Frequencies in a sample's smooth deformation field.
const DEFORM_TERMS: usize = 3;

fn render_sample(spec: &DatasetSpec, prototype: &[f64], rng: &mut SimRng) -> Vec<u8> {
    let deform = smooth_field(spec.width, spec.height, DEFORM_TERMS, rng);
    prototype
        .iter()
        .zip(&deform)
        .map(|(&p, &d)| {
            let v = p + spec.deform * d + rng.normal(0.0, spec.pixel_noise);
            v.round().clamp(0.0, 255.0) as u8
        })
        .collect()
}

/// Raw draws [`render_sample`] consumes: two per deformation frequency,
/// a phase and an amplitude per deformation term, and the pixel noise. A
/// function of the spec alone.
fn render_draws(spec: &DatasetSpec) -> u64 {
    4 * DEFORM_TERMS as u64 + pixel_noise_draws(spec)
}

/// Generates a full train/test split for an image dataset.
///
/// Prototypes derive from `seed` alone; train and test samples come from
/// independent derived streams, so the two partitions share the class
/// structure but no noise.
pub fn generate_image_split(spec: &DatasetSpec, seed: u64) -> BytesSplit {
    let mut prng = SimRng::derive(seed, &format!("{}-prototypes", spec.id.name()));
    let prototypes = class_prototypes(spec, &mut prng);
    let mut train_rng = SimRng::derive(seed, &format!("{}-train", spec.id.name()));
    let mut test_rng = SimRng::derive(seed, &format!("{}-test", spec.id.name()));
    // Samples render in parallel from stream checkpoints.
    let draws = render_draws(spec);
    let partition = |count, rng: &mut SimRng| {
        render_partition(spec, &prototypes, count, draws, rng, render_sample)
    };
    BytesSplit {
        train: partition(spec.train_samples, &mut train_rng),
        test: partition(spec.test_samples, &mut test_rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::{assert_matches_sequential, with_workers};
    use crate::spec::{DatasetId, Scale};

    fn quick_spec() -> DatasetSpec {
        DatasetSpec::of(DatasetId::Mnist, Scale::Quick)
    }

    #[test]
    fn smooth_field_is_normalized() {
        let mut rng = SimRng::seed_from_u64(1);
        let f = smooth_field(16, 16, 5, &mut rng);
        let rms = (f.iter().map(|v| v * v).sum::<f64>() / f.len() as f64).sqrt();
        assert!((rms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_field_is_actually_smooth() {
        // Adjacent-pixel differences must be small relative to the range.
        let mut rng = SimRng::seed_from_u64(2);
        let w = 24;
        let f = smooth_field(w, 24, 5, &mut rng);
        let mut max_step: f64 = 0.0;
        for y in 0..24 {
            for x in 1..w {
                max_step = max_step.max((f[y * w + x] - f[y * w + x - 1]).abs());
            }
        }
        let range = f.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - f.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max_step < 0.35 * range, "step {max_step} range {range}");
    }

    #[test]
    fn split_has_balanced_classes() {
        let spec = quick_spec();
        let split = generate_image_split(&spec, 5);
        let mut counts = vec![0usize; spec.classes];
        for &l in &split.train.labels {
            counts[l] += 1;
        }
        let min = counts.iter().min().copied().unwrap_or(0);
        let max = counts.iter().max().copied().unwrap_or(0);
        assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn samples_use_full_byte_range_reasonably() {
        let spec = quick_spec();
        let split = generate_image_split(&spec, 6);
        let all: Vec<u8> = split.train.samples.iter().flatten().copied().collect();
        let lo = *all.iter().min().expect("non-empty");
        let hi = *all.iter().max().expect("non-empty");
        assert!(hi > 180, "max {hi}");
        assert!(lo < 70, "min {lo}");
    }

    #[test]
    fn same_class_samples_correlate_more_than_cross_class() {
        let spec = quick_spec();
        let split = generate_image_split(&spec, 7);
        // Average intra-class vs inter-class L2 distance on a few samples.
        let d = |a: &[u8], b: &[u8]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| {
                    let v = x as f64 - y as f64;
                    v * v
                })
                .sum::<f64>()
                .sqrt()
        };
        let by_class = |c: usize| -> Vec<&Vec<u8>> {
            split
                .train
                .samples
                .iter()
                .zip(&split.train.labels)
                .filter(|(_, &l)| l == c)
                .map(|(s, _)| s)
                .take(6)
                .collect()
        };
        let c0 = by_class(0);
        let c1 = by_class(1);
        let intra = d(c0[0], c0[1]).min(d(c0[2], c0[3]));
        let inter = d(c0[0], c1[0]).max(d(c0[1], c1[1]));
        // Not a strict guarantee per pair (multimodality), but the min
        // intra distance should not exceed the max inter distance by much.
        assert!(intra < inter * 1.5, "intra {intra} inter {inter}");
    }

    #[test]
    fn checkpointed_partition_matches_the_sequential_stream_at_any_worker_count() {
        let spec = quick_spec();
        let prototypes = class_prototypes(&spec, &mut SimRng::seed_from_u64(10));
        assert_matches_sequential(&spec, &prototypes, render_draws(&spec), render_sample);
    }

    #[test]
    fn noiseless_samples_draw_no_pixel_normals() {
        let mut spec = quick_spec();
        spec.pixel_noise = 0.0;
        let prototypes = class_prototypes(&spec, &mut SimRng::seed_from_u64(12));
        assert_matches_sequential(&spec, &prototypes, render_draws(&spec), render_sample);
    }

    #[test]
    #[should_panic(expected = "did not consume the")]
    fn a_wrong_draw_count_trips_the_checkpoint_assert() {
        let spec = quick_spec();
        let prototypes = class_prototypes(&spec, &mut SimRng::seed_from_u64(10));
        let mut rng = SimRng::seed_from_u64(11);
        let draws = render_draws(&spec) + 1;
        with_workers(1, || {
            render_partition(&spec, &prototypes, 4, draws, &mut rng, render_sample)
        });
    }

    #[test]
    fn train_and_test_share_prototypes_but_not_samples() {
        let spec = quick_spec();
        let split = generate_image_split(&spec, 8);
        assert_ne!(split.train.samples[0], split.test.samples[0]);
    }
}
