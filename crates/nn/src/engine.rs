//! Deterministic batched training engine — the training-side counterpart
//! of `metaai::engine::OtaEngine`.
//!
//! The paper trains its complex LNN with mini-batch momentum SGD (Sec 3.1:
//! lr 8 × 10⁻³, momentum 0.95, batch 64, 60 epochs). The original loop in
//! [`crate::train`] was single-threaded, cloned every input per sample per
//! epoch, and threaded one mutable RNG through shuffling *and*
//! augmentation — so it could not be parallelized without changing its
//! output. This engine restructures the loop around three rules:
//!
//! 1. **Counter-derived RNG streams.** The epoch shuffle draws from
//!    `SimRng::derive_indexed(seed, "train-shuffle", epoch)` and each
//!    sample's augmentation chain from
//!    `derive_indexed(seed, "train-augment", epoch·N + position)`, where
//!    `position` is the sample's index in the shuffled epoch order. No RNG
//!    state is shared between samples, so any sample's draws can be
//!    reproduced in isolation, on any worker.
//! 2. **Fixed-order sub-chunk reduction.** Each mini-batch is split into
//!    sub-chunks of [`GRAD_SUBCHUNK`] samples. Every sub-chunk accumulates
//!    its gradient sequentially into its own scratch slot; the slots are
//!    then merged sequentially in sub-chunk index order. Floating-point
//!    addition order is therefore a pure function of the batch layout —
//!    never of which worker ran which sub-chunk — so the trained weights
//!    are bitwise independent of `RAYON_NUM_THREADS`.
//! 3. **Scratch reuse.** Gradient matrices and augmentation buffers are
//!    allocated once per training run and reused across batches
//!    (`apply_all_into` writes augmented samples into per-slot buffers);
//!    the unaugmented path borrows the dataset input directly with no copy
//!    at all.
//!
//! [`fold_batch`] is the generic reduction primitive; the deep trainers in
//! [`crate::deep`], [`crate::deep_complex`] and [`crate::pnn_stack`] reuse
//! it with their own scratch types.

use crate::augment::apply_all_into;
use crate::complex_lnn::ComplexLnn;
use crate::data::ComplexDataset;
use crate::train::{EpochStats, TrainConfig};
use metaai_math::rng::SimRng;
use metaai_math::{CMat, CVec, C64};
use metaai_telemetry::{Counter, Gauge, Histogram};
use rayon::prelude::*;
use std::sync::OnceLock;
use std::time::Instant;

/// Training-stage instruments, registered once with the global registry.
struct TrainMetrics {
    epochs: Counter,
    samples: Counter,
    augmentations: Counter,
    epoch_seconds: Histogram,
    batch_seconds: Histogram,
    samples_per_sec: Gauge,
}

fn metrics() -> &'static TrainMetrics {
    static METRICS: OnceLock<TrainMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        TrainMetrics {
            epochs: r.counter("metaai.nn.train.epochs"),
            samples: r.counter("metaai.nn.train.samples"),
            augmentations: r.counter("metaai.nn.train.augmentations"),
            epoch_seconds: r.latency_histogram("metaai.nn.train.epoch_seconds"),
            batch_seconds: r.latency_histogram("metaai.nn.train.batch_seconds"),
            samples_per_sec: r.gauge("metaai.nn.train.samples_per_sec"),
        }
    })
}

/// Registers the trainer's instruments with the global telemetry registry,
/// so snapshots list them (zero-valued) even before the first run.
pub fn register_metrics() {
    let _ = metrics();
}

/// Samples per reduction sub-chunk.
///
/// This is a *fixed* constant, deliberately not derived from the worker
/// count: sub-chunk boundaries determine floating-point summation order,
/// so an adaptive size would make results depend on the machine. 8 keeps
/// enough sub-chunks per batch-64 mini-batch to occupy many workers while
/// amortizing the per-slot merge.
pub const GRAD_SUBCHUNK: usize = 8;

/// Parallel fold over one mini-batch with a deterministic reduction order.
///
/// Splits `indices` into sub-chunks of [`GRAD_SUBCHUNK`] consecutive
/// samples. Sub-chunk `c` is `reset` and then accumulated *sequentially*
/// into `scratch[c]` by calling `per_sample(slot, base_pos + offset,
/// indices[offset])` for each of its samples; sub-chunks run in parallel.
/// Afterwards `scratch[1..]` is merged into `scratch[0]` sequentially in
/// index order, so the full reduction tree is fixed regardless of how the
/// sub-chunks were scheduled across workers.
///
/// `base_pos` is the position of `indices[0]` in the epoch order; it is
/// forwarded to `per_sample` so callers can derive per-sample RNG streams
/// from a global, collision-free counter.
///
/// Returns the number of scratch slots used; the merged result is in
/// `scratch[0]`. Panics if `scratch` has fewer slots than sub-chunks.
pub fn fold_batch<G, R, P, M>(
    indices: &[usize],
    base_pos: usize,
    scratch: &mut [G],
    reset: R,
    per_sample: P,
    mut merge: M,
) -> usize
where
    G: Send,
    R: Fn(&mut G) + Sync,
    P: Fn(&mut G, usize, usize) + Sync,
    M: FnMut(&mut G, &G),
{
    let n = indices.len();
    if n == 0 {
        return 0;
    }
    let n_sub = n.div_ceil(GRAD_SUBCHUNK);
    assert!(
        scratch.len() >= n_sub,
        "fold_batch needs {n_sub} scratch slots, got {}",
        scratch.len()
    );
    let jobs: Vec<(usize, &mut G)> = scratch[..n_sub].iter_mut().enumerate().collect();
    jobs.into_par_iter().for_each(|(c, slot)| {
        reset(slot);
        let lo = c * GRAD_SUBCHUNK;
        let hi = (lo + GRAD_SUBCHUNK).min(n);
        for (off, &idx) in indices.iter().enumerate().take(hi).skip(lo) {
            per_sample(slot, base_pos + off, idx);
        }
    });
    let (head, tail) = scratch.split_at_mut(1);
    for slot in tail.iter().take(n_sub - 1) {
        merge(&mut head[0], slot);
    }
    n_sub
}

/// Per-sub-chunk scratch for the complex-LNN trainer: the partial gradient,
/// running loss/accuracy counters, and the augmentation ping-pong buffers.
struct TrainScratch {
    grad: CMat,
    loss: f64,
    correct: usize,
    aug: CVec,
    tmp: CVec,
}

impl TrainScratch {
    fn new(classes: usize, input_len: usize) -> Self {
        TrainScratch {
            grad: CMat::zeros(classes, input_len),
            loss: 0.0,
            correct: 0,
            aug: CVec::zeros(0),
            tmp: CVec::zeros(0),
        }
    }

    fn reset(&mut self) {
        self.grad.as_mut_slice().fill(C64::ZERO);
        self.loss = 0.0;
        self.correct = 0;
        // aug/tmp are overwritten per sample; no need to clear.
    }
}

/// Batched, deterministic trainer for the paper's complex LNN.
///
/// Construction is cheap; [`train_with_stats`](Self::train_with_stats)
/// owns all scratch for the run.
#[derive(Clone, Debug)]
pub struct TrainEngine {
    cfg: TrainConfig,
}

impl TrainEngine {
    /// Creates an engine for one training configuration.
    pub fn new(cfg: TrainConfig) -> Self {
        TrainEngine { cfg }
    }

    /// The configuration this engine trains with.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Trains a [`ComplexLnn`] on `data`, returning the network and
    /// per-epoch statistics. Output is a function of `(data, config)` only
    /// — bitwise identical across runs and worker counts.
    pub fn train_with_stats(&self, data: &ComplexDataset) -> (ComplexLnn, Vec<EpochStats>) {
        let cfg = &self.cfg;
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        let mut init_rng = SimRng::derive(cfg.seed, "train-complex");
        let mut net = ComplexLnn::init(data.num_classes, data.input_len(), &mut init_rng);
        let (classes, input_len, n) = (data.num_classes, data.input_len(), data.len());
        let mut velocity = CMat::zeros(classes, input_len);
        let mut stats = Vec::with_capacity(cfg.epochs);

        let shuffle_stream = SimRng::stream_id("train-shuffle");
        let aug_stream = SimRng::stream_id("train-augment");
        let slots = cfg.batch.min(n).div_ceil(GRAD_SUBCHUNK);
        let mut scratch: Vec<TrainScratch> = (0..slots)
            .map(|_| TrainScratch::new(classes, input_len))
            .collect();

        // Telemetry is sampled once per run: a disabled registry costs one
        // atomic load here and nothing inside the epoch/batch loops.
        let tele = metaai_telemetry::enabled().then(metrics);
        let run_start = tele.map(|_| Instant::now());

        for epoch in 0..cfg.epochs {
            let _epoch_span = tele.map(|m| m.epoch_seconds.span());
            let order =
                SimRng::derive_indexed(cfg.seed, shuffle_stream, epoch as u64).permutation(n);
            let mut epoch_loss = 0.0;
            let mut correct = 0usize;

            for (b, chunk) in order.chunks(cfg.batch).enumerate() {
                let _batch_span = tele.map(|m| m.batch_seconds.span());
                let net_ref = &net;
                let augs = cfg.augmentations.as_slice();
                let seed = cfg.seed;
                fold_batch(
                    chunk,
                    b * cfg.batch,
                    &mut scratch,
                    TrainScratch::reset,
                    |s, pos, idx| {
                        let x: &CVec = if augs.is_empty() {
                            &data.inputs[idx]
                        } else {
                            let mut rng =
                                SimRng::derive_indexed(seed, aug_stream, (epoch * n + pos) as u64);
                            apply_all_into(
                                augs,
                                &data.inputs[idx],
                                &mut s.aug,
                                &mut s.tmp,
                                &mut rng,
                            );
                            &s.aug
                        };
                        let out = net_ref.accumulate_grad(x, data.labels[idx], &mut s.grad);
                        s.loss += out.loss;
                        if out.predicted == data.labels[idx] {
                            s.correct += 1;
                        }
                    },
                    |acc, part| {
                        acc.grad.axpy(1.0, &part.grad);
                        acc.loss += part.loss;
                        acc.correct += part.correct;
                    },
                );

                let merged = &scratch[0];
                epoch_loss += merged.loss;
                correct += merged.correct;
                // v ← μ·v − lr·(g / |chunk|); W ← W + v
                velocity.scale_mut(cfg.momentum);
                velocity.axpy(-cfg.lr / chunk.len() as f64, &merged.grad);
                for (w, &v) in net
                    .weights
                    .as_mut_slice()
                    .iter_mut()
                    .zip(velocity.as_slice())
                {
                    *w += v;
                }
            }

            if let Some(m) = tele {
                m.epochs.inc();
                m.samples.add(n as u64);
                m.augmentations.add((n * cfg.augmentations.len()) as u64);
            }
            stats.push(EpochStats {
                epoch,
                loss: epoch_loss / n as f64,
                accuracy: correct as f64 / n as f64,
            });
        }

        if let (Some(m), Some(start)) = (tele, run_start) {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                m.samples_per_sec.set((cfg.epochs * n) as f64 / elapsed);
            }
        }

        (net, stats)
    }

    /// Trains and discards telemetry.
    pub fn train(&self, data: &ComplexDataset) -> ComplexLnn {
        self.train_with_stats(data).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::Augmentation;
    use crate::train::toy_problem;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch: 16,
            ..TrainConfig::default()
        }
        .with_augmentation(Augmentation::cdfa_default())
        .with_augmentation(Augmentation::noise_default())
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let data = toy_problem(3, 12, 20, 0.3, 21, 121);
        let engine = TrainEngine::new(quick_cfg());
        let (a, sa) = engine.train_with_stats(&data);
        let (b, sb) = engine.train_with_stats(&data);
        assert_eq!(a.weights, b.weights);
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
        }
    }

    #[test]
    fn engine_learns_a_separable_problem() {
        let train = toy_problem(4, 24, 40, 0.3, 1, 100);
        let test = toy_problem(4, 24, 15, 0.3, 1, 200);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        let net = TrainEngine::new(cfg).train(&train);
        let acc = crate::train::evaluate(&net, &test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let data = toy_problem(3, 12, 20, 0.3, 22, 122);
        let a = TrainEngine::new(TrainConfig {
            seed: 1,
            epochs: 2,
            ..TrainConfig::default()
        })
        .train(&data);
        let b = TrainEngine::new(TrainConfig {
            seed: 2,
            epochs: 2,
            ..TrainConfig::default()
        })
        .train(&data);
        assert_ne!(a.weights, b.weights);
    }

    #[test]
    fn fold_batch_merges_in_index_order() {
        // Record which sample positions land in which slot and verify the
        // merged transcript is the sequential sub-chunk concatenation.
        let indices: Vec<usize> = (100..119).collect();
        let mut scratch: Vec<Vec<usize>> = vec![Vec::new(); 3];
        let used = fold_batch(
            &indices,
            64,
            &mut scratch,
            |s| s.clear(),
            |s, pos, idx| s.push(pos * 1000 + idx),
            |a, b| a.extend_from_slice(b),
        );
        assert_eq!(used, 3);
        let expect: Vec<usize> = indices
            .iter()
            .enumerate()
            .map(|(off, &idx)| (64 + off) * 1000 + idx)
            .collect();
        assert_eq!(scratch[0], expect);
    }

    #[test]
    fn fold_batch_handles_empty_and_partial_chunks() {
        let mut scratch: Vec<Vec<usize>> = vec![Vec::new(); 2];
        assert_eq!(
            fold_batch(&[], 0, &mut scratch, |s| s.clear(), |_, _, _| {}, |_, _| {}),
            0
        );
        let used = fold_batch(
            &[7usize, 8, 9],
            0,
            &mut scratch,
            |s| s.clear(),
            |s, _, idx| s.push(idx),
            |a, b| a.extend_from_slice(b),
        );
        assert_eq!(used, 1);
        assert_eq!(scratch[0], vec![7, 8, 9]);
    }
}
