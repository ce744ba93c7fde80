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
//! 3. **Scratch reuse.** Gradient planes and augmentation buffers are
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
//! forms the effective weights and each factor's conjugated complement
//! `conj(Π_{k≠l} W_k)` once per batch and accumulates
//! `Γ_r·x̄_i·conj(Π_{k≠l} W_k)`. Both run on split re/im `f64` planes,
//! with the bits of the interleaved `C64` loops (`add_cograds`).
//!
//! [`fold_batch`] is the generic reduction primitive; the deep trainers in
//! [`crate::deep`], [`crate::deep_complex`] and [`crate::pnn_stack`] reuse
//! it with their own scratch types.

use crate::augment::apply_all_into;
use crate::complex_lnn::{ComplexLnn, StackWeights};
use crate::data::ComplexDataset;
use crate::loss::{magnitude_ce_into, MagnitudeCeLoss};
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

/// A `rows × cols` complex matrix as split re/im row-major `f64` planes:
/// entry `(r, c)` is `(re[r·cols + c], im[r·cols + c])`.
struct SplitPlanes {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitPlanes {
    fn zeros(len: usize) -> Self {
        SplitPlanes {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }
}

/// Per-sub-chunk scratch: one partial gradient per factor, the current
/// sample's conjugated input `x̄` (both split re/im), its logits and loss
/// buffers, running loss/accuracy counters, and the augmentation
/// ping-pong buffers.
struct TrainScratch {
    grads: Vec<SplitPlanes>,
    xc_re: Vec<f64>,
    xc_im: Vec<f64>,
    logits: CVec,
    ce: MagnitudeCeLoss,
    loss: f64,
    correct: usize,
    aug: CVec,
    tmp: CVec,
}

impl TrainScratch {
    fn new(layers: usize, classes: usize, input_len: usize) -> Self {
        TrainScratch {
            grads: (0..layers)
                .map(|_| SplitPlanes::zeros(classes * input_len))
                .collect(),
            xc_re: vec![0.0; input_len],
            xc_im: vec![0.0; input_len],
            logits: CVec::zeros(0),
            ce: MagnitudeCeLoss::default(),
            loss: 0.0,
            correct: 0,
            aug: CVec::zeros(0),
            tmp: CVec::zeros(0),
        }
    }

    fn reset(&mut self) {
        for g in &mut self.grads {
            g.re.fill(0.0);
            g.im.fill(0.0);
        }
        self.loss = 0.0;
        self.correct = 0;
        // aug/tmp, x̄, logits and ce are overwritten per sample; no need
        // to clear.
    }
}

/// Per factor `l`, the conjugated complement `conj(Π_{k≠l} W_k)` (the
/// product in path order), written into `out[l]`.
fn conj_complements_into(factors: &[CMat], out: &mut [SplitPlanes]) {
    for (l, planes) in out.iter_mut().enumerate() {
        for (j, (re, im)) in planes.re.iter_mut().zip(&mut planes.im).enumerate() {
            let c = factors
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != l)
                .fold(C64::ONE, |acc, (_, f)| acc * f.as_slice()[j]);
            *re = c.re;
            *im = -c.im;
        }
    }
}

/// One sample's cogradient of every factor, on split planes.
///
/// With no complements (L = 1) the one factor is the network:
/// `grad[r, i] += Γ_r·x̄_i` for every row whose cograd `Γ_r` is nonzero.
/// With complements (L ≥ 2), factor `l` accumulates
/// `Γ_r·x̄_i·conj(Π_{k≠l} W_k[r, i])` on every row.
///
/// Each plane element gets the `f64` operations of the interleaved
/// [`C64`] expression it replaces, in the same order — `C64::mul_add`
/// for L = 1; two `C64` products, then `+=`, for L ≥ 2 — with `x̄` and
/// the conjugated complements split once beforehand (a conjugate only
/// flips a sign bit). The split layout lets the row streams vectorize;
/// the bits are the interleaved loop's.
#[inline(always)]
fn add_cograds(
    cograd: &[C64],
    xc_re: &[f64],
    xc_im: &[f64],
    conj_comps: &[SplitPlanes],
    grads: &mut [SplitPlanes],
) {
    let u = xc_re.len();
    let xc_im = &xc_im[..u];
    if conj_comps.is_empty() {
        let grad = &mut grads[0];
        for (r, &g) in cograd.iter().enumerate() {
            if g == C64::ZERO {
                continue;
            }
            let row_re = &mut grad.re[r * u..(r + 1) * u];
            let row_im = &mut grad.im[r * u..(r + 1) * u];
            for (((a_re, a_im), &xr), &xi) in row_re.iter_mut().zip(row_im).zip(xc_re).zip(xc_im) {
                *a_re = *a_re + g.re * xr - g.im * xi;
                *a_im = *a_im + g.re * xi + g.im * xr;
            }
        }
        return;
    }
    for (grad, comp) in grads.iter_mut().zip(conj_comps) {
        for (r, &g) in cograd.iter().enumerate() {
            let row = r * u..(r + 1) * u;
            let row_re = &mut grad.re[row.clone()];
            let row_im = &mut grad.im[row.clone()];
            let (c_re, c_im) = (&comp.re[row.clone()], &comp.im[row]);
            for i in 0..u {
                let t_re = g.re * xc_re[i] - g.im * xc_im[i];
                let t_im = g.re * xc_im[i] + g.im * xc_re[i];
                row_re[i] += t_re * c_re[i] - t_im * c_im[i];
                row_im[i] += t_re * c_im[i] + t_im * c_re[i];
            }
        }
    }
}

/// [`add_cograds`] at the widest ISA this host runs, dispatched as
/// `CMat::matvec` is: the AVX2 path is the same safe body recompiled with
/// AVX2 enabled (no intrinsics, FMA off), so every path computes the
/// identical `f64` sequence.
mod cograd_isa {
    use super::{add_cograds, SplitPlanes, C64};

    pub(super) fn run(
        cograd: &[C64],
        xc_re: &[f64],
        xc_im: &[f64],
        conj_comps: &[SplitPlanes],
        grads: &mut [SplitPlanes],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { run_avx2(cograd, xc_re, xc_im, conj_comps, grads) };
        }
        add_cograds(cograd, xc_re, xc_im, conj_comps, grads)
    }

    /// [`add_cograds`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU running it must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2(
        cograd: &[C64],
        xc_re: &[f64],
        xc_im: &[f64],
        conj_comps: &[SplitPlanes],
        grads: &mut [SplitPlanes],
    ) {
        add_cograds(cograd, xc_re, xc_im, conj_comps, grads)
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
        // L ≥ 2 only: each factor's conjugated complement, refilled per
        // batch. One factor is its own effective weights and needs none.
        let complemented = if layers > 1 { layers } else { 0 };
        let mut conj_comps: Vec<SplitPlanes> = (0..complemented)
            .map(|_| SplitPlanes::zeros(classes * input_len))
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
                // the conjugated complements.
                let product = (layers > 1).then(|| {
                    conj_complements_into(&stack.factors, &mut conj_comps);
                    stack.effective()
                });
                let effective = product.as_ref().unwrap_or(&stack.factors[0]);
                let conj_comps = conj_comps.as_slice();
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
                        for ((re, im), z) in s.xc_re.iter_mut().zip(&mut s.xc_im).zip(x.iter()) {
                            *re = z.re;
                            *im = -z.im;
                        }
                        let label = data.labels[idx];
                        effective.matvec_into(x, &mut s.logits);
                        magnitude_ce_into(&s.logits, label, &mut s.ce);
                        cograd_isa::run(
                            s.ce.cograd.as_slice(),
                            &s.xc_re,
                            &s.xc_im,
                            conj_comps,
                            &mut s.grads,
                        );
                        s.loss += s.ce.loss;
                        if s.ce.predicted == label {
                            s.correct += 1;
                        }
                    },
                    |acc, part| {
                        for (a, p) in acc.grads.iter_mut().zip(&part.grads) {
                            for (ai, &pi) in a.re.iter_mut().zip(&p.re) {
                                *ai += pi;
                            }
                            for (ai, &pi) in a.im.iter_mut().zip(&p.im) {
                                *ai += pi;
                            }
                        }
                        acc.loss += part.loss;
                        acc.correct += part.correct;
                    },
                );

                let merged = &scratch[0];
                epoch_loss += merged.loss;
                correct += merged.correct;
                // Per factor and element: v ← μ·v + (−lr/|chunk|)·g;
                // W ← W + v.
                let step = -cfg.lr / chunk.len() as f64;
                for ((w, v), g) in stack
                    .factors
                    .iter_mut()
                    .zip(&mut velocity)
                    .zip(&merged.grads)
                {
                    let gs = g.re.iter().zip(&g.im);
                    for ((wi, vi), (&g_re, &g_im)) in
                        w.as_mut_slice().iter_mut().zip(v.as_mut_slice()).zip(gs)
                    {
                        *vi = vi.scale(cfg.momentum) + C64::new(g_re, g_im) * step;
                        *wi += *vi;
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

    /// The interleaved cogradient loops the split-plane kernel replaced:
    /// `grad[r, i] = grad[r, i].mul_add(Γ_r, x̄_i)` on nonzero rows for one
    /// factor, `grad[r, i] += Γ_r·x̄_i·conj(Π_{k≠l} W_k[r, i])` on every
    /// row for several.
    fn reference_cograds(cograd: &CVec, x: &CVec, factors: &[CMat], grads: &mut [CMat]) {
        if let [grad] = grads {
            return crate::complex_lnn::add_weight_cograd(cograd, x, grad);
        }
        for (l, grad) in grads.iter_mut().enumerate() {
            for (r, g) in cograd.iter().enumerate() {
                for (i, xi) in x.iter().enumerate() {
                    let comp = factors
                        .iter()
                        .enumerate()
                        .filter(|&(k, _)| k != l)
                        .fold(C64::ONE, |acc, (_, f)| acc * f[(r, i)]);
                    grad[(r, i)] += *g * xi.conj() * comp.conj();
                }
            }
        }
    }

    fn plane_words(p: &SplitPlanes) -> Vec<u64> {
        p.re.iter().chain(&p.im).map(|v| v.to_bits()).collect()
    }

    fn cmat_words(m: &CMat) -> Vec<u64> {
        let parts = |f: fn(&C64) -> f64| m.as_slice().iter().map(f).map(f64::to_bits);
        parts(|z| z.re).chain(parts(|z| z.im)).collect()
    }

    /// `(factors, start, samples)` of `layers` factors over a 5 × 13
    /// network, with a starting gradient per factor. Factors, inputs and
    /// starting gradients hold signed zeros, so a skipped row (which
    /// keeps a `−0`) and an accumulated one (`−0 + 0` is `+0`) differ.
    /// Each sample's cograd has an exactly zero row (`+0` or `−0` parts)
    /// and a row with a zero part.
    #[allow(clippy::type_complexity)]
    fn cograd_case(layers: usize, seed: u64) -> (Vec<CMat>, Vec<CMat>, Vec<(CVec, CVec)>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let (rows, cols) = (5, 13);
        let z = |rng: &mut SimRng| match rng.below(6) {
            0 => C64::new(-0.0, 0.0),
            1 => C64::new(0.0, -0.0),
            2 => C64::new(rng.normal(0.0, 1.0), -0.0),
            _ => rng.complex_gaussian(1.0),
        };
        let mut matrices = || -> Vec<CMat> {
            (0..layers)
                .map(|_| CMat::from_fn(rows, cols, |_, _| z(&mut rng)))
                .collect()
        };
        let (factors, start) = (matrices(), matrices());
        let samples = (0..4)
            .map(|k| {
                let x = CVec::from_fn(cols, |_| z(&mut rng));
                let cograd = CVec::from_fn(rows, |r| match (r + k) % rows {
                    0 => C64::ZERO,
                    1 => C64::new(-0.0, -0.0),
                    2 => C64::new(0.0, rng.normal(0.0, 1.0)),
                    _ => rng.complex_gaussian(1.0),
                });
                (cograd, x)
            })
            .collect();
        (factors, start, samples)
    }

    /// Runs every sample of a case through `kernel` on split planes and
    /// through the interleaved reference, and compares the bits after
    /// each.
    fn check_cograds(
        layers: usize,
        kernel: impl Fn(&[C64], &[f64], &[f64], &[SplitPlanes], &mut [SplitPlanes]),
    ) {
        let (factors, start, samples) = cograd_case(layers, 70 + layers as u64);
        let (rows, cols) = (factors[0].rows(), factors[0].cols());
        let complemented = if layers > 1 { layers } else { 0 };
        let mut conj_comps: Vec<SplitPlanes> = (0..complemented)
            .map(|_| SplitPlanes::zeros(rows * cols))
            .collect();
        conj_complements_into(&factors, &mut conj_comps);
        let mut scratch = TrainScratch::new(layers, rows, cols);
        for (planes, m) in scratch.grads.iter_mut().zip(&start) {
            planes.re = m.as_slice().iter().map(|z| z.re).collect();
            planes.im = m.as_slice().iter().map(|z| z.im).collect();
        }
        let mut want = start;
        for (cograd, x) in &samples {
            for ((re, im), z) in scratch
                .xc_re
                .iter_mut()
                .zip(&mut scratch.xc_im)
                .zip(x.iter())
            {
                *re = z.re;
                *im = -z.im;
            }
            kernel(
                cograd.as_slice(),
                &scratch.xc_re,
                &scratch.xc_im,
                &conj_comps,
                &mut scratch.grads,
            );
            reference_cograds(cograd, x, &factors, &mut want);
            // After every sample: a later nonzero row overwrites a `−0`.
            for (l, (got, want)) in scratch.grads.iter().zip(&want).enumerate() {
                assert_eq!(
                    plane_words(got),
                    cmat_words(want),
                    "L = {layers}, factor {l}"
                );
            }
        }
    }

    #[test]
    fn split_plane_cograds_match_the_interleaved_loops_bitwise() {
        for layers in 1..=3 {
            check_cograds(layers, cograd_isa::run);
        }
    }

    #[test]
    fn cograd_complements_are_the_conjugated_products() {
        let (factors, _, _) = cograd_case(3, 9);
        let mut planes: Vec<SplitPlanes> = (0..3).map(|_| SplitPlanes::zeros(5 * 13)).collect();
        conj_complements_into(&factors, &mut planes);
        for (l, p) in planes.iter().enumerate() {
            let others: Vec<CMat> = (0..3)
                .filter(|&k| k != l)
                .map(|k| factors[k].clone())
                .collect();
            let comp = crate::complex_lnn::entrywise_product(&others);
            let conj = CMat::from_fn(5, 13, |r, c| comp[(r, c)].conj());
            assert_eq!(plane_words(p), cmat_words(&conj), "factor {l}");
        }
    }

    /// CI's x86 hosts run only the AVX2 kernel, so drive the portable
    /// body (what non-x86 builds ship) against the reference as well.
    #[test]
    fn cograd_isa_paths_agree_bitwise() {
        for layers in 1..=3 {
            check_cograds(layers, add_cograds);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                println!("note: no AVX2 on this host; ISA parity not checked");
                return;
            }
            for layers in 1..=3 {
                // SAFETY: AVX2 presence checked above.
                check_cograds(layers, |g, xr, xi, c, out| unsafe {
                    cograd_isa::run_avx2(g, xr, xi, c, out)
                });
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("note: not an x86-64 host; only the portable kernel exists");
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
