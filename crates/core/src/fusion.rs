//! Multi-sensor and multi-modality late fusion — Sec 3.4, Eqns 11–12.
//!
//! Linear networks make sensor fusion trivial: weights attached to
//! different sensors' inputs are independent, so the sensors simply take
//! turns transmitting through the *same* metasurface (time division) and
//! the receiver keeps accumulating:
//!
//! ```text
//! y_r^multi = | Σ_s Σ_i H_r^s(t_i) · x_i^s |
//! ```
//!
//! Implementation-wise that is exactly a single network over the
//! *concatenation* of the sensors' symbol vectors — which is how we train
//! and deploy it. Accuracy rises with sensor count because per-sensor
//! noise is independent while the class evidence is shared.

use metaai_math::CVec;
use metaai_nn::data::ComplexDataset;

/// Concatenates the first `n_sensors` views of a multi-sensor dataset into
/// one time-division dataset. All views must be index-aligned (same event
/// order and labels), as produced by `metaai_datasets::multisensor`.
pub fn fuse_views(views: &[ComplexDataset], n_sensors: usize) -> ComplexDataset {
    assert!(n_sensors >= 1, "need at least one sensor");
    assert!(
        n_sensors <= views.len(),
        "asked for {n_sensors} sensors, have {}",
        views.len()
    );
    let used = &views[..n_sensors];
    let n = used[0].len();
    for (s, v) in used.iter().enumerate() {
        assert_eq!(v.len(), n, "sensor {s} has mismatched event count");
        assert_eq!(
            v.labels, used[0].labels,
            "sensor {s} labels must align event-by-event"
        );
    }

    let inputs: Vec<CVec> = (0..n)
        .map(|i| {
            let mut combined = Vec::new();
            for v in used {
                combined.extend_from_slice(v.inputs[i].as_slice());
            }
            CVec::from_vec(combined)
        })
        .collect();
    ComplexDataset::new(inputs, used[0].labels.clone(), used[0].num_classes)
}

/// The per-sensor segment boundaries of a fused input: sensor `s` occupies
/// `offsets[s] .. offsets[s + 1]`.
pub fn segment_offsets(views: &[ComplexDataset], n_sensors: usize) -> Vec<usize> {
    let mut offsets = vec![0];
    for v in &views[..n_sensors] {
        offsets.push(offsets.last().expect("non-empty") + v.input_len());
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::C64;

    fn view(len: usize, n: usize, mark: f64) -> ComplexDataset {
        let inputs: Vec<CVec> = (0..n)
            .map(|i| CVec::from_fn(len, |k| C64::new(mark, (i * 10 + k) as f64)))
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        ComplexDataset::new(inputs, labels, 2)
    }

    #[test]
    fn fusing_concatenates_in_order() {
        let views = [view(3, 4, 1.0), view(5, 4, 2.0)];
        let fused = fuse_views(&views, 2);
        assert_eq!(fused.input_len(), 8);
        assert_eq!(fused.len(), 4);
        // First segment from sensor 0, second from sensor 1.
        assert_eq!(fused.inputs[0][0].re, 1.0);
        assert_eq!(fused.inputs[0][3].re, 2.0);
    }

    #[test]
    fn one_sensor_is_identity() {
        let views = [view(4, 3, 1.0), view(4, 3, 2.0)];
        let fused = fuse_views(&views, 1);
        assert_eq!(fused.inputs, views[0].inputs);
    }

    #[test]
    fn segment_offsets_partition_the_input() {
        let views = [view(3, 2, 0.0), view(5, 2, 0.0), view(2, 2, 0.0)];
        assert_eq!(segment_offsets(&views, 3), vec![0, 3, 8, 10]);
    }

    #[test]
    fn labels_survive_fusion() {
        let views = [view(2, 6, 1.0), view(2, 6, 2.0)];
        let fused = fuse_views(&views, 2);
        assert_eq!(fused.labels, views[0].labels);
    }

    #[test]
    #[should_panic(expected = "labels must align")]
    fn rejects_misaligned_labels() {
        let a = view(2, 4, 1.0);
        let mut b = view(2, 4, 2.0);
        b.labels[0] = 1 - b.labels[0];
        fuse_views(&[a, b], 2);
    }
}
