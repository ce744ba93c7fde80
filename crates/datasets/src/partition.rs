//! Partitions rendered in parallel from stream checkpoints.
//!
//! A partition's samples come from one [`SimRng`] stream, each sample's
//! draws following the previous one's. Where a sample's raw draw count is
//! a function of the spec alone (see [`SimRng`]'s draw counts), the
//! stream position at which each sample starts can be found by skipping,
//! which is cheap, and the samples — where all of the cost is — can then
//! render in parallel, each from its own checkpoint, with every byte as
//! the one-stream loop made it.

use crate::spec::DatasetSpec;
use crate::BytesDataset;
use metaai_math::rng::SimRng;
use rayon::prelude::*;

/// Raw draws of one `normal(0, spec.pixel_noise)` per feature: two each
/// (Box–Muller), none when the noise is zero.
pub(crate) fn pixel_noise_draws(spec: &DatasetSpec) -> u64 {
    if spec.pixel_noise > 0.0 {
        2 * spec.feature_bytes() as u64
    } else {
        0
    }
}

/// Renders one sample from a class-mode prototype, drawing from `rng`.
pub(crate) type RenderSample = fn(&DatasetSpec, &[f64], &mut SimRng) -> Vec<u8>;

/// Renders a partition of `count` samples from `rng`, as the one-stream
/// loop would, and leaves `rng` where that loop would. Sample `i` is of
/// class `i mod classes` (round-robin, for balance), draws its mode, and
/// is `render` of `prototypes[class][mode]`; `render` must consume
/// exactly `render_draws` raw values.
///
/// One sequential pass clones `rng` at each sample's start and skips its
/// `1 + render_draws` values; the samples then render in parallel, in
/// order, each from its own clone. Every sample must end exactly where
/// the next one starts (the last where `rng` ended), so a wrong
/// `render_draws` panics instead of producing other data.
pub(crate) fn render_partition(
    spec: &DatasetSpec,
    prototypes: &[Vec<Vec<f64>>],
    count: usize,
    render_draws: u64,
    rng: &mut SimRng,
    render: RenderSample,
) -> BytesDataset {
    let draws = 1 + render_draws;
    let starts: Vec<SimRng> = (0..count)
        .map(|_| {
            let start = rng.clone();
            rng.skip(draws);
            start
        })
        .collect();
    let end: &SimRng = rng;
    let samples = (0..count)
        .into_par_iter()
        .map(|i| {
            let mut stream = starts[i].clone();
            let mode = stream.below(spec.modes);
            let sample = render(spec, &prototypes[i % spec.classes][mode], &mut stream);
            assert!(
                stream == *starts.get(i + 1).unwrap_or(end),
                "sample {i} did not consume the {draws} draws its checkpoint assumed"
            );
            sample
        })
        .collect();
    BytesDataset {
        samples,
        labels: (0..count).map(|i| i % spec.classes).collect(),
        num_classes: spec.classes,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `f` with exactly `workers` rayon workers.
    pub(crate) fn with_workers<R: Send>(workers: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("worker pool")
            .install(f)
    }

    /// The one-stream loop [`render_partition`] replaced, kept as the
    /// reference.
    pub(crate) fn sequential_partition(
        spec: &DatasetSpec,
        prototypes: &[Vec<Vec<f64>>],
        count: usize,
        rng: &mut SimRng,
        render: RenderSample,
    ) -> BytesDataset {
        let mut samples = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            let class = i % spec.classes;
            let mode = rng.below(spec.modes);
            samples.push(render(spec, &prototypes[class][mode], rng));
            labels.push(class);
        }
        BytesDataset {
            samples,
            labels,
            num_classes: spec.classes,
        }
    }

    /// Asserts that `render_partition` makes the reference's bytes, labels
    /// and final stream state under one and three workers.
    pub(crate) fn assert_matches_sequential(
        spec: &DatasetSpec,
        prototypes: &[Vec<Vec<f64>>],
        render_draws: u64,
        render: RenderSample,
    ) {
        let count = 2 * spec.classes * spec.modes + 3;
        let mut reference_rng = SimRng::seed_from_u64(11);
        let reference = sequential_partition(spec, prototypes, count, &mut reference_rng, render);
        for workers in [1, 3] {
            let mut rng = SimRng::seed_from_u64(11);
            let data = with_workers(workers, || {
                render_partition(spec, prototypes, count, render_draws, &mut rng, render)
            });
            assert_eq!(data.samples, reference.samples, "{workers} workers");
            assert_eq!(data.labels, reference.labels, "{workers} workers");
            assert!(
                rng == reference_rng,
                "{workers} workers: final stream state"
            );
        }
    }

    #[test]
    fn pixel_noise_draws_two_per_feature_unless_noiseless() {
        let mut spec = DatasetSpec::of(crate::DatasetId::Mnist, crate::Scale::Quick);
        assert_eq!(pixel_noise_draws(&spec), 2 * 784);
        spec.pixel_noise = 0.0;
        assert_eq!(pixel_noise_draws(&spec), 0);
    }
}
