//! Time-series generator — the Widar 3.0 gesture stand-in.
//!
//! Wi-Fi gesture data (Doppler spectrograms) are class-keyed temporal
//! patterns. We generate each gesture class as a chirp-plus-tones template
//! over a `width × height` time–frequency grid, apply per-sample time
//! warping (people never repeat a gesture identically), add noise, and
//! quantize — the same downstream path as the image datasets.

use crate::partition::{pixel_noise_draws, render_partition};
use crate::spec::DatasetSpec;
use crate::{BytesDataset, BytesSplit};
use metaai_math::rng::SimRng;

/// A gesture template: energy ridges over the time–frequency grid.
fn gesture_template(spec: &DatasetSpec, rng: &mut SimRng) -> Vec<f64> {
    let (w, h) = (spec.width, spec.height);
    let mut grid = vec![0.0; w * h];
    // Two to four Doppler ridges with class-specific trajectories.
    let ridges = 2 + rng.below(3);
    for _ in 0..ridges {
        let f0 = rng.uniform_range(0.15, 0.85) * h as f64;
        let slope = rng.uniform_range(-0.5, 0.5) * h as f64 / w as f64;
        let curve = rng.uniform_range(-0.3, 0.3) * h as f64 / (w as f64 * w as f64);
        let width = rng.uniform_range(1.0, 2.5);
        let amp = rng.uniform_range(0.6, 1.0);
        for t in 0..w {
            let centre = f0 + slope * t as f64 + curve * (t as f64) * (t as f64);
            for f in 0..h {
                let d = (f as f64 - centre) / width;
                grid[f * w + t] += amp * (-0.5 * d * d).exp();
            }
        }
    }
    grid
}

/// Renders one sample: time-warped template + noise, quantized to bytes.
fn render_sample(spec: &DatasetSpec, template: &[f64], rng: &mut SimRng) -> Vec<u8> {
    let (w, h) = (spec.width, spec.height);
    // Smooth random time warp: t' = t + a·sin(πt/w + φ).
    let warp_amp = spec.deform / 255.0 * 0.25 * w as f64;
    let warp_phase = rng.phase();
    let speed = rng.uniform_range(0.9, 1.1);
    let mut out = Vec::with_capacity(w * h);
    for f in 0..h {
        for t in 0..w {
            let tw = (t as f64 * speed
                + warp_amp * (std::f64::consts::PI * t as f64 / w as f64 + warp_phase).sin())
            .clamp(0.0, (w - 1) as f64);
            // Linear interpolation along time.
            let t0 = tw.floor() as usize;
            let t1 = (t0 + 1).min(w - 1);
            let frac = tw - t0 as f64;
            let v = template[f * w + t0] * (1.0 - frac) + template[f * w + t1] * frac;
            let noisy = 40.0 + 5.0 * spec.contrast * v + rng.normal(0.0, spec.pixel_noise);
            out.push(noisy.round().clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// Raw draws [`render_sample`] consumes: the warp phase and speed, and
/// the pixel noise. The ridge count is drawn from the template stream, so
/// this is a function of the spec alone.
fn render_draws(spec: &DatasetSpec) -> u64 {
    2 + pixel_noise_draws(spec)
}

/// Generates a full train/test split for the gesture dataset.
pub fn generate_series_split(spec: &DatasetSpec, seed: u64) -> BytesSplit {
    let mut prng = SimRng::derive(seed, "widar-templates");
    // `modes` variants per gesture class (different performers).
    let templates: Vec<Vec<Vec<f64>>> = (0..spec.classes)
        .map(|_| {
            (0..spec.modes)
                .map(|_| gesture_template(spec, &mut prng))
                .collect()
        })
        .collect();

    // Samples render in parallel from stream checkpoints.
    let draws = render_draws(spec);
    let gen = |count: usize, label: &str| -> BytesDataset {
        let mut rng = SimRng::derive(seed, &format!("widar-{label}"));
        render_partition(spec, &templates, count, draws, &mut rng, render_sample)
    };

    BytesSplit {
        train: gen(spec.train_samples, "train"),
        test: gen(spec.test_samples, "test"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::assert_matches_sequential;
    use crate::spec::{DatasetId, Scale};

    fn spec() -> DatasetSpec {
        DatasetSpec::of(DatasetId::Widar3, Scale::Quick)
    }

    #[test]
    fn split_shapes_are_correct() {
        let s = spec();
        let split = generate_series_split(&s, 1);
        assert_eq!(split.train.len(), s.train_samples);
        assert_eq!(split.train.samples[0].len(), s.feature_bytes());
        assert_eq!(split.train.num_classes, 6);
    }

    #[test]
    fn templates_have_ridge_structure() {
        let s = spec();
        let mut rng = SimRng::seed_from_u64(2);
        let t = gesture_template(&s, &mut rng);
        let peak = t.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        assert!(peak > 2.0 * mean, "peak {peak} mean {mean}");
    }

    #[test]
    fn warping_makes_samples_differ() {
        let s = spec();
        let split = generate_series_split(&s, 3);
        // Two samples of the same class are never byte-identical.
        let (a, b) = (&split.train.samples[0], &split.train.samples[6]);
        assert_eq!(split.train.labels[0], split.train.labels[6]);
        assert_ne!(a, b);
    }

    #[test]
    fn checkpointed_samples_match_the_sequential_stream_at_any_worker_count() {
        let s = spec();
        let mut prng = SimRng::seed_from_u64(5);
        let templates: Vec<Vec<Vec<f64>>> = (0..s.classes)
            .map(|_| {
                (0..s.modes)
                    .map(|_| gesture_template(&s, &mut prng))
                    .collect()
            })
            .collect();
        assert_matches_sequential(&s, &templates, render_draws(&s), render_sample);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = spec();
        let a = generate_series_split(&s, 4);
        let b = generate_series_split(&s, 4);
        assert_eq!(a.train.samples, b.train.samples);
    }
}
