//! Deterministic batched training engine — the training-side counterpart
//! of `metaai::engine::OtaEngine`.
//!
//! The paper trains its complex LNN with mini-batch momentum SGD (Sec 3.1:
//! lr 8 × 10⁻³, momentum 0.95, batch 64, 60 epochs). Stacked surfaces
//! train the entrywise product `W_0 ⊙ … ⊙ W_{L−1}` ([`StackWeights`])
//! with the same loss, and [`TrainEngine::train_stack`] is the one
//! epoch/batch loop for both: L = 1 is the complex LNN
//! ([`TrainEngine::train_with_stats`]). The original loop in
//! [`crate::train`] was single-threaded, cloned every input per sample per
//! epoch, and threaded one mutable RNG through shuffling *and*
//! augmentation — so it could not be parallelized without changing its
//! output. This engine restructures the loop around three rules:
//!
//! 1. **Counter-derived RNG streams.** The epoch shuffle draws from
//!    `SimRng::derive_indexed(seed, shuffle, epoch)` and each sample's
//!    augmentation chain from
//!    `derive_indexed(seed, augment, epoch·N + position)`, where
//!    `position` is the sample's index in the shuffled epoch order. No RNG
//!    state is shared between samples, so any sample's draws can be
//!    reproduced in isolation, on any worker.
//! 2. **Fixed-order sub-chunk reduction.** Each mini-batch is split into
//!    sub-chunks of [`GRAD_SUBCHUNK`] samples. Every sub-chunk accumulates
//!    its gradient sequentially into its own scratch slot; the slots are
//!    then merged sequentially in sub-chunk index order. Floating-point
//!    addition order is therefore a pure function of the batch layout —
//!    never of which worker ran which sub-chunk — so the trained weights
//!    are bitwise independent of the rayon worker count.
//! 3. **Scratch reuse.** Gradient matrices and augmentation buffers are
//!    allocated once per training run and reused across batches
//!    (`apply_all_into` writes augmented samples into per-slot buffers);
//!    the unaugmented path borrows the dataset input directly with no copy
//!    at all.
//!
//! Two things depend on the layer count, each in one place. The stream
//! names: L = 1 keeps the complex LNN's `train-complex` (init),
//! `train-shuffle` and `train-augment`; L ≥ 2 uses
//! `train-stack-layer-{l}`, `train-stack-shuffle` and
//! `train-stack-augment` ([`StackWeights::init`] names the init streams).
//! And the per-sample cogradient: L = 1 accumulates
//! [`ComplexLnn::accumulate_grad`]'s `Γ_r·x̄_i` into its one factor, which
//! is its own effective weights, so its batches form no product; L ≥ 2
//! forms the effective weights and each factor's complement
//! `Π_{k≠l} W_k` once per batch and accumulates
//! `Γ_r·x̄_i·conj(Π_{k≠l} W_k)`.
//!
//! [`fold_batch`] is the generic reduction primitive; the deep trainers in
//! [`crate::deep`], [`crate::deep_complex`] and [`crate::pnn_stack`] reuse
//! it with their own scratch types.

use crate::augment::apply_all_into;
use crate::complex_lnn::{add_weight_cograd, ComplexLnn, StackWeights};
use crate::data::ComplexDataset;
use crate::loss::magnitude_ce;
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

/// Per-sub-chunk scratch: one partial gradient per factor, running
/// loss/accuracy counters, and the augmentation ping-pong buffers.
struct TrainScratch {
    grads: Vec<CMat>,
    loss: f64,
    correct: usize,
    aug: CVec,
    tmp: CVec,
}

impl TrainScratch {
    fn new(layers: usize, classes: usize, input_len: usize) -> Self {
        TrainScratch {
            grads: (0..layers)
                .map(|_| CMat::zeros(classes, input_len))
                .collect(),
            loss: 0.0,
            correct: 0,
            aug: CVec::zeros(0),
            tmp: CVec::zeros(0),
        }
    }

    fn reset(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(C64::ZERO);
        }
        self.loss = 0.0;
        self.correct = 0;
        // aug/tmp are overwritten per sample; no need to clear.
    }
}

/// Per factor `l`, the entrywise product of every other factor,
/// `Π_{k≠l} W_k`, in path order.
fn complements(factors: &[CMat]) -> Vec<CMat> {
    let (rows, cols) = (factors[0].rows(), factors[0].cols());
    (0..factors.len())
        .map(|l| {
            CMat::from_fn(rows, cols, |r, c| {
                factors
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != l)
                    .fold(C64::ONE, |acc, (_, f)| acc * f[(r, c)])
            })
        })
        .collect()
}

/// `grads[l][r, i] += Γ_r · x̄_i · conj(Π_{k≠l} W_k[r, i])`: one sample's
/// cogradient of every factor of an L ≥ 2 network.
fn add_factor_cograds(cograd: &CVec, x: &CVec, complements: &[CMat], grads: &mut [CMat]) {
    for (grad, comp) in grads.iter_mut().zip(complements) {
        for (r, g) in cograd.iter().enumerate() {
            let row = grad.row_mut(r);
            for (i, xi) in x.iter().enumerate() {
                row[i] += *g * xi.conj() * comp[(r, i)].conj();
            }
        }
    }
}

/// Batched, deterministic trainer for the paper's complex LNN and its
/// L-factor product parameterization.
///
/// Construction is cheap; [`train_stack`](Self::train_stack) owns all
/// scratch for the run.
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

    /// Trains `layers` factors `W_0 ⊙ … ⊙ W_{L−1}` jointly on `data`,
    /// returning them and per-epoch statistics of the effective network.
    /// `layers = 1` is the paper's complex LNN. Output is a function of
    /// `(data, config, layers)` only — bitwise identical across runs and
    /// worker counts.
    pub fn train_stack(
        &self,
        data: &ComplexDataset,
        layers: usize,
    ) -> (StackWeights, Vec<EpochStats>) {
        let cfg = &self.cfg;
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        let (classes, input_len, n) = (data.num_classes, data.input_len(), data.len());
        let mut stack = StackWeights::init(classes, input_len, layers, cfg.seed);
        let mut velocity: Vec<CMat> = (0..layers)
            .map(|_| CMat::zeros(classes, input_len))
            .collect();
        let mut stats = Vec::with_capacity(cfg.epochs);

        let (shuffle, augment) = if layers == 1 {
            ("train-shuffle", "train-augment")
        } else {
            ("train-stack-shuffle", "train-stack-augment")
        };
        let shuffle_stream = SimRng::stream_id(shuffle);
        let aug_stream = SimRng::stream_id(augment);
        let slots = cfg.batch.min(n).div_ceil(GRAD_SUBCHUNK);
        let mut scratch: Vec<TrainScratch> = (0..slots)
            .map(|_| TrainScratch::new(layers, classes, input_len))
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
                // Per-batch constants of L ≥ 2: the effective weights and
                // each factor's complement product. One factor is its own
                // effective weights and needs neither.
                let products =
                    (layers > 1).then(|| (stack.effective(), complements(&stack.factors)));
                let effective = products.as_ref().map_or(&stack.factors[0], |p| &p.0);
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
                        let label = data.labels[idx];
                        let out = magnitude_ce(&effective.matvec(x), label);
                        match &products {
                            None => add_weight_cograd(&out.cograd, x, &mut s.grads[0]),
                            Some((_, comps)) => {
                                add_factor_cograds(&out.cograd, x, comps, &mut s.grads)
                            }
                        }
                        s.loss += out.loss;
                        if out.predicted == label {
                            s.correct += 1;
                        }
                    },
                    |acc, part| {
                        for (a, p) in acc.grads.iter_mut().zip(&part.grads) {
                            a.axpy(1.0, p);
                        }
                        acc.loss += part.loss;
                        acc.correct += part.correct;
                    },
                );

                let merged = &scratch[0];
                epoch_loss += merged.loss;
                correct += merged.correct;
                // Per factor: v ← μ·v − lr·(g / |chunk|); W ← W + v.
                for ((w, v), g) in stack
                    .factors
                    .iter_mut()
                    .zip(&mut velocity)
                    .zip(&merged.grads)
                {
                    v.scale_mut(cfg.momentum);
                    v.axpy(-cfg.lr / chunk.len() as f64, g);
                    for (wi, &vi) in w.as_mut_slice().iter_mut().zip(v.as_slice()) {
                        *wi += vi;
                    }
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

        (stack, stats)
    }

    /// Trains a [`ComplexLnn`] on `data` (the one-factor
    /// [`train_stack`](Self::train_stack)), returning the network and
    /// per-epoch statistics.
    pub fn train_with_stats(&self, data: &ComplexDataset) -> (ComplexLnn, Vec<EpochStats>) {
        let (weights, stats) = self.train_stack(data, 1);
        (weights.effective_net(), stats)
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
    fn a_two_layer_stack_learns_the_toy_problem() {
        let data = toy_problem(3, 32, 40, 0.3, 9, 109);
        let cfg = TrainConfig {
            epochs: 12,
            batch: 16,
            ..TrainConfig::default()
        };
        let (stack, stats) = TrainEngine::new(cfg).train_stack(&data, 2);
        assert_eq!(stack.num_layers(), 2);
        let acc = crate::train::evaluate(&stack.effective_net(), &data);
        assert!(acc > 0.9, "stacked digital accuracy {acc}");
        assert!(
            stats.last().unwrap().loss < stats[0].loss,
            "loss must decrease"
        );
    }

    #[test]
    fn stack_training_is_deterministic_per_seed() {
        let data = toy_problem(3, 16, 20, 0.3, 5, 105);
        let engine = TrainEngine::new(quick_cfg());
        assert_eq!(
            engine.train_stack(&data, 2).0,
            engine.train_stack(&data, 2).0
        );
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
