//! The batched over-the-air inference engine — the single code path for
//! every OTA prediction in the workspace.
//!
//! [`OtaReceiver::accumulate`](crate::ota::OtaReceiver::accumulate) is the
//! readable per-chip reference model of Eqn 3; this module is the
//! production implementation of the same physics, built for throughput:
//!
//! * **Counter-based RNG streams.** Each sample `i` of a batch draws from
//!   [`SimRng::derive_indexed`]`(seed, stream, i)` — no `format!`-keyed
//!   hashing per sample, and any sample's stream can be reconstructed
//!   independently, which is what makes batching bit-reproducible.
//! * **Index-based cyclic shift.** The residual sync error is applied by
//!   index arithmetic on the input slice instead of materializing a
//!   shifted `CVec` per output row (the legacy path allocated and copied
//!   `R` shifted vectors per sample).
//! * **Fused K-class SoA kernel.** Scoring resolves the symbol stream
//!   *once* per sample — the paper's Eqn 9/10 parallelism, where all K
//!   class scores fall out of a single transmission. A chip stage
//!   resolves the cyclic shift and materializes the shifted symbols and
//!   environment gains into split re/im scratch (`EngineScratch`,
//!   thread-local so batch workers reuse one allocation); the
//!   accumulation stage then runs each output row as a pure complex dot
//!   product of those SoA slices against the channel matrix's precomputed
//!   split re/im planes ([`CPlanes`]), several rows per sweep with
//!   register-resident accumulators — plain `f64` multiply-adds, no
//!   intrinsics, on stable rustc. The arithmetic mirrors `symbol_signal`
//!   operation-for-operation, so the fused scores are bitwise identical
//!   to the scalar reference kernel ([`OtaEngine::scores_scalar`], the
//!   pre-fusion loop kept as the executable specification).
//! * **Shared per-symbol chip staging.** The traced path reads the same
//!   staged shift/symbol/gain values as the scoring kernel and derives
//!   both chip polarities through the same `chip_signal`, so traced and
//!   untraced chips cannot drift.
//! * **Aggregated receiver noise.** The legacy path drew one complex
//!   Gaussian per chip. Noise enters the accumulation additively, and a
//!   sum of `k` independent `CN(0, σ²)` draws is exactly one
//!   `CN(0, k·σ²)` draw — so the engine draws a single row-level noise
//!   sample of the summed variance. The score distribution is identical;
//!   the per-row cost drops from `2U` Gaussian pairs to one. (Trace mode
//!   still resolves noise per chip, since it reports chip-level values.)
//! * **Batch parallelism.** Batches are processed in chunks under rayon,
//!   each worker reusing a scratch score buffer. Because every sample owns
//!   a counter-derived RNG, results are bitwise independent of the worker
//!   count (`RAYON_NUM_THREADS=1` and the default produce identical
//!   output).
//!
//! The engine is reached through [`MetaAiSystem`](crate::pipeline::MetaAiSystem)
//! (`run`, `run_batch`, `ota_accuracy*`) or directly via [`OtaEngine`] when
//! only a channel matrix is at hand.

use crate::ota::OtaConditions;
use crate::trace::{InferenceTrace, TraceRow};
use metaai_math::rng::SimRng;
use metaai_math::stats::argmax;
use metaai_math::{cyclic_offset, shifted_index, CMat, CPlanes, CVec, C64};
use metaai_phy::shaping;
use metaai_telemetry::{Counter, Histogram};
use rayon::prelude::*;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Inference-stage instruments, registered once with the global registry.
///
/// The hot path checks the enabled flag once per sample (`tele()` is a
/// relaxed atomic load); everything else only happens when telemetry is
/// on, keeping instrumented-but-disabled throughput at the uninstrumented
/// level.
struct EngineMetrics {
    batches: Counter,
    samples: Counter,
    chips: Counter,
    awgn_draws: Counter,
    traces: Counter,
    sample_seconds: Histogram,
}

fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        EngineMetrics {
            batches: r.counter("metaai.core.engine.batches"),
            samples: r.counter("metaai.core.engine.samples"),
            chips: r.counter("metaai.core.engine.chips"),
            awgn_draws: r.counter("metaai.core.engine.awgn_draws"),
            traces: r.counter("metaai.core.engine.traces"),
            sample_seconds: r.latency_histogram("metaai.core.engine.sample_seconds"),
        }
    })
}

/// The per-sample telemetry gate.
#[inline]
fn tele() -> Option<&'static EngineMetrics> {
    metaai_telemetry::enabled().then(metrics)
}

/// Registers the engine's instruments with the global telemetry registry,
/// so snapshots list them (zero-valued) even before the first inference.
pub fn register_metrics() {
    let _ = metrics();
}

/// Samples per worker chunk in batch processing. Small enough to balance
/// uneven worker speeds, large enough to amortize per-chunk scratch.
const BATCH_CHUNK: usize = 32;

/// One inference to run: the input symbols, the channel conditions during
/// the transmission, and whether to record a chip-level trace.
#[derive(Clone, Debug)]
pub struct InferenceRequest<'a> {
    /// Transmitted symbol vector (one symbol per deployed weight column).
    pub input: &'a CVec,
    /// Channel conditions during this transmission.
    pub conditions: OtaConditions,
    /// Record a per-symbol [`InferenceTrace`] (requires cancellation).
    pub trace: bool,
}

impl<'a> InferenceRequest<'a> {
    /// A plain (untraced) inference request.
    pub fn new(input: &'a CVec, conditions: OtaConditions) -> Self {
        InferenceRequest {
            input,
            conditions,
            trace: false,
        }
    }

    /// Requests a chip-level trace of the transmission.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// The result of one inference.
#[derive(Clone, Debug)]
pub struct InferenceOutcome {
    /// Receiver-side class scores `y_r = |Σ_i H_r(t_i)·x_i|`.
    pub scores: Vec<f64>,
    /// `argmax` of the scores.
    pub predicted: usize,
    /// Chip-level trace, when requested.
    pub trace: Option<InferenceTrace>,
}

/// The signal part of one received chip: the environmental path plus the
/// (polarity-flipped) MTS weight, times the shaped chip.
///
/// Both the untraced scoring kernel and the trace recorder go through this
/// one function — the single definition of the chip-level physics.
#[inline]
fn chip_signal(h: C64, he: C64, xi: C64, slot: usize) -> C64 {
    (he + shaping::weight_chip(h, slot)) * shaping::shape_chip(xi, slot)
}

/// One symbol's signal contribution to the accumulator (noise excluded).
#[inline]
fn symbol_signal(h: C64, he: C64, xi: C64, cancellation: bool) -> C64 {
    if cancellation {
        let mut sum = C64::ZERO;
        for slot in 0..shaping::SLOTS_PER_SYMBOL {
            sum += chip_signal(h, he, xi, slot);
        }
        sum
    } else {
        (he + h) * xi
    }
}

/// Number of per-chip noise draws the reference receiver would make for
/// one output row — the aggregation factor for the engine's single draw.
#[inline]
fn noise_draws_per_row(n_symbols: usize, cancellation: bool) -> usize {
    if cancellation {
        n_symbols * shaping::SLOTS_PER_SYMBOL
    } else {
        n_symbols
    }
}

/// Reusable split re/im scratch for the fused kernel.
///
/// The chip stage writes per-symbol values here once per sample; the
/// accumulation stage reads them back as scalar broadcasts while streaming
/// the channel planes. One instance lives per thread (see [`SCRATCH`]), so
/// rayon batch workers and serve worker threads each reuse a single
/// allocation across every sample they score without a scratch handle
/// threading through the public API.
#[derive(Default)]
struct EngineScratch {
    /// Shifted input symbols `x[(i + shift) mod u]`, split re/im.
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    /// Environment gains `H_e(i)`, split re/im.
    e_re: Vec<f64>,
    e_im: Vec<f64>,
}

impl EngineScratch {
    /// The chip stage: resolves the cyclic shift once and materializes the
    /// shifted symbols and environment gains for `0..u` — the per-symbol
    /// values every output row shares, computed once per *sample* instead
    /// of once per row. [`OtaEngine::traced`] reads the same staged
    /// values, so traced and untraced chips cannot drift.
    fn stage_chips(&mut self, x: &CVec, cond: &OtaConditions) {
        let u = x.len();
        let offset = cyclic_offset(cond.sync_shift, u);
        let xs = x.as_slice();
        self.x_re.clear();
        self.x_im.clear();
        self.e_re.clear();
        self.e_im.clear();
        self.x_re.reserve(u);
        self.x_im.reserve(u);
        self.e_re.reserve(u);
        self.e_im.reserve(u);
        for i in 0..u {
            let xi = xs[shifted_index(i, offset, u)];
            let he = cond.env.gain_at(i);
            self.x_re.push(xi.re);
            self.x_im.push(xi.im);
            self.e_re.push(he.re);
            self.e_im.push(he.im);
        }
    }
}

/// Widest accumulation sweep in the block cascade (8/4/2/1). Each row's
/// dot product is a serial chain of two dependent `f64` adds; running a
/// block of independent chains side by side fills SIMD lanes and hides
/// that latency without reassociating any single row's sum (each row
/// keeps its own strictly serial symbol order, so blocking is
/// bitwise-invisible). The cascade keeps small class counts lane-packed
/// too: K=5 sweeps as 4+1 instead of five scalar passes.
const ROW_BLOCK: usize = 8;

/// Minimum output rows for the fused path to win. Measured break-even
/// (U=900, cancellation on): at K=3 the chip stage still costs more than
/// the `K×U` re-derivations it removes and split-form sweeps can't fill
/// their lanes (fused ≈0.88× scalar); from K=4 the fused kernel wins and
/// keeps growing (≈1.25× at K=4, ≈1.8× at K=10, ≈2.2× at K=16). Below
/// the threshold the engine scores through the bitwise-identical scalar
/// path instead.
const FUSED_MIN_ROWS: usize = 4;

/// The accumulation stage for one block of `N` output rows: `N`
/// simultaneous complex dot products of the staged symbol stream against
/// the channel planes, accumulators held in registers.
///
/// The column-major planes put the block's channel entries `H[r..r+N, i]`
/// in one contiguous run per component, so the `k` loop (a compile-time
/// constant trip count) maps onto SIMD lanes with plain vector loads —
/// the per-symbol scalars broadcast across the block. The arithmetic per
/// row mirrors `symbol_signal` operation-for-operation in split re/im
/// form — see [`OtaEngine::score_rows`] for the bitwise argument.
#[inline(always)]
fn sweep_rows<const N: usize>(
    planes: &CPlanes,
    first_row: usize,
    s: &EngineScratch,
    mf: &[f64],
    cancellation: bool,
) -> [(f64, f64); N] {
    let u = mf.len();
    let x_re = &s.x_re[..u];
    let x_im = &s.x_im[..u];
    let e_re = &s.e_re[..u];
    let e_im = &s.e_im[..u];
    let mut acc_re = [0.0f64; N];
    let mut acc_im = [0.0f64; N];
    if cancellation {
        // `symbol_signal`'s two chips, expanded in split form:
        // (He + W)·x on slot 0, (He − W)·(−x) on slot 1, summed before
        // joining the accumulator.
        for i in 0..u {
            let c_re = &planes.col_re(i)[first_row..first_row + N];
            let c_im = &planes.col_im(i)[first_row..first_row + N];
            let (xr, xi) = (x_re[i], x_im[i]);
            let (er, ei) = (e_re[i], e_im[i]);
            let m = mf[i];
            let (nxr, nxi) = (-xr, -xi);
            for k in 0..N {
                let hr = c_re[k] * m;
                let hi = c_im[k] * m;
                let (ar, ai) = (er + hr, ei + hi);
                let c0r = ar * xr - ai * xi;
                let c0i = ar * xi + ai * xr;
                let (br, bi) = (er - hr, ei - hi);
                let c1r = br * nxr - bi * nxi;
                let c1i = br * nxi + bi * nxr;
                acc_re[k] += c0r + c1r;
                acc_im[k] += c0i + c1i;
            }
        }
    } else {
        // `(He + H)·x`, split form of the uncancelled symbol.
        for i in 0..u {
            let c_re = &planes.col_re(i)[first_row..first_row + N];
            let c_im = &planes.col_im(i)[first_row..first_row + N];
            let (xr, xi) = (x_re[i], x_im[i]);
            let (er, ei) = (e_re[i], e_im[i]);
            let m = mf[i];
            for k in 0..N {
                let hr = c_re[k] * m;
                let hi = c_im[k] * m;
                let (ar, ai) = (er + hr, ei + hi);
                acc_re[k] += ar * xr - ai * xi;
                acc_im[k] += ar * xi + ai * xr;
            }
        }
    }
    std::array::from_fn(|k| (acc_re[k], acc_im[k]))
}

/// AVX2 instantiations of [`sweep_rows`] for every block width in the
/// cascade, plus the runtime dispatch that picks them.
///
/// `#[target_feature(enable = "avx2")]` recompiles the *same* safe Rust
/// body with 256-bit vectors available; autovectorization widens the
/// block's lanes from 2 (baseline SSE2) to 4. No intrinsics are involved,
/// and FMA stays off deliberately: rustc never contracts `mul` + `add`
/// on its own, so every lane computes the identical `f64` sequence on
/// every path — ISA dispatch is bitwise-invisible.
#[cfg(target_arch = "x86_64")]
mod sweep_x86 {
    use super::{sweep_rows, CPlanes, EngineScratch};

    macro_rules! dispatch {
        ($name:ident, $avx2:ident, $n:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $avx2(
                planes: &CPlanes,
                first_row: usize,
                s: &EngineScratch,
                mf: &[f64],
                cancellation: bool,
            ) -> [(f64, f64); $n] {
                sweep_rows::<$n>(planes, first_row, s, mf, cancellation)
            }

            #[inline]
            pub fn $name(
                planes: &CPlanes,
                first_row: usize,
                s: &EngineScratch,
                mf: &[f64],
                cancellation: bool,
            ) -> [(f64, f64); $n] {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: guarded by the runtime feature check above.
                    unsafe { $avx2(planes, first_row, s, mf, cancellation) }
                } else {
                    sweep_rows::<$n>(planes, first_row, s, mf, cancellation)
                }
            }
        };
    }

    dispatch!(by8, by8_avx2, 8);
    dispatch!(by4, by4_avx2, 4);
    dispatch!(by2, by2_avx2, 2);
    dispatch!(by1, by1_avx2, 1);
}

/// Portable fallback dispatch: the plain autovectorized sweeps.
#[cfg(not(target_arch = "x86_64"))]
mod sweep_portable {
    use super::{sweep_rows, CPlanes, EngineScratch};

    macro_rules! dispatch {
        ($name:ident, $n:expr) => {
            #[inline]
            pub fn $name(
                planes: &CPlanes,
                first_row: usize,
                s: &EngineScratch,
                mf: &[f64],
                cancellation: bool,
            ) -> [(f64, f64); $n] {
                sweep_rows::<$n>(planes, first_row, s, mf, cancellation)
            }
        };
    }

    dispatch!(by8, 8);
    dispatch!(by4, 4);
    dispatch!(by2, 2);
    dispatch!(by1, 1);
}

#[cfg(not(target_arch = "x86_64"))]
use sweep_portable as sweep;
#[cfg(target_arch = "x86_64")]
use sweep_x86 as sweep;

thread_local! {
    /// Per-thread [`EngineScratch`]; the kernel never re-enters itself, so
    /// the `RefCell` borrow is always uncontended.
    static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
}

/// A batched, scratch-reusing OTA inference engine over one deployed
/// channel matrix `H[r, i]`.
///
/// Construction splits the matrix into column-major re/im planes
/// ([`CPlanes`]) for the fused kernel. Callers that keep one matrix
/// deployed across many requests (the serving path) should split the
/// planes once and lend them via [`OtaEngine::with_planes`], making
/// per-request engine construction free.
pub struct OtaEngine<'a> {
    channels: &'a CMat,
    planes: Cow<'a, CPlanes>,
}

impl<'a> OtaEngine<'a> {
    /// Wraps a realized channel matrix, splitting it into SoA planes.
    pub fn new(channels: &'a CMat) -> Self {
        OtaEngine {
            channels,
            planes: Cow::Owned(CPlanes::from_cmat(channels)),
        }
    }

    /// Wraps a channel matrix whose SoA planes were split up front.
    ///
    /// The caller owns coherence: `planes` must be a faithful copy of
    /// `channels` ([`CPlanes::matches`], asserted in debug builds; shape
    /// agreement is always asserted).
    pub fn with_planes(channels: &'a CMat, planes: &'a CPlanes) -> Self {
        assert_eq!(planes.rows(), channels.rows(), "planes/matrix row count");
        assert_eq!(planes.cols(), channels.cols(), "planes/matrix col count");
        debug_assert!(
            planes.matches(channels),
            "SoA planes are stale: rebuild them whenever the channel matrix changes"
        );
        OtaEngine {
            channels,
            planes: Cow::Borrowed(planes),
        }
    }

    /// Number of output classes (`R`).
    pub fn num_outputs(&self) -> usize {
        self.channels.rows()
    }

    /// Number of symbols per transmission (`U`).
    pub fn num_symbols(&self) -> usize {
        self.channels.cols()
    }

    fn check_shapes(&self, x: &CVec, cond: &OtaConditions) {
        assert_eq!(self.channels.cols(), x.len(), "one channel per symbol");
        assert_eq!(cond.len(), x.len(), "conditions must cover all symbols");
    }

    /// Computes class scores for one input, appending into `out` (cleared
    /// first) so batch workers can reuse one allocation.
    ///
    /// The telemetry branch happens *around* the scoring kernel, not
    /// inside it: holding a drop-bearing `Span` local across the hot loop
    /// costs a few percent even when disabled (drop flags + unwind
    /// paths), so the disabled path calls the kernel with no telemetry
    /// state at all.
    pub fn scores_into(
        &self,
        x: &CVec,
        cond: &OtaConditions,
        rng: &mut SimRng,
        out: &mut Vec<f64>,
    ) {
        self.check_shapes(x, cond);
        if let Some(m) = tele() {
            let span = m.sample_seconds.span();
            self.score_rows(x, cond, rng, out);
            drop(span);
            let u = x.len();
            let rows = self.channels.rows() as u64;
            m.samples.inc();
            m.chips
                .add(rows * noise_draws_per_row(u, cond.cancellation) as u64);
            if cond.awgn.variance > 0.0 {
                // One aggregated CN(0, kσ²) draw per output row.
                m.awgn_draws.add(rows);
            }
        } else {
            self.score_rows(x, cond, rng, out);
        }
    }

    /// The fused scoring kernel: the chip stage materializes the shifted,
    /// conditioned symbol stream once per sample (`U` cheap ops instead of
    /// `K×U` chip re-derivations — the paper's Eqn 9/10 parallelism, where
    /// all K class scores fall out of a single transmission), then the
    /// accumulation stage runs each output row as a pure complex dot
    /// product over the staged SoA slices against the row's precomputed
    /// re/im planes, [`ROW_BLOCK`] rows per sweep with accumulators in
    /// registers.
    ///
    /// Bitwise equivalence with [`OtaEngine::scores_scalar`] rests on two
    /// invariants:
    ///
    /// * Each row's accumulator sees additions in the same symbol order,
    ///   with operand arithmetic mirroring `symbol_signal`
    ///   operation-for-operation — no reassociation across symbols and no
    ///   factoring the two cancellation chips into `2·W·x` — so every
    ///   intermediate `f64` is identical. Row blocking only interleaves
    ///   *independent* rows' chains; within a row nothing is reordered.
    ///   (The only non-mirrored detail: `symbol_signal` folds its chips
    ///   through an extra `C64::ZERO + …`, which can flip a zero's sign
    ///   but never the accumulator's value, since a running sum seeded at
    ///   `+0.0` cannot reach `-0.0`.)
    /// * Accumulation consumes no randomness, and the single aggregate
    ///   noise draw per row happens in ascending row order — exactly the
    ///   RNG sequence the scalar kernel consumes (the sweeps between draws
    ///   touch no RNG state).
    ///
    /// The sweeps are plain indexed `f64` arithmetic over contiguous plane
    /// rows and staged slices — no intrinsics; stable rustc keeps the
    /// block's accumulators in registers and schedules the independent
    /// row chains in parallel.
    #[inline]
    fn score_rows(&self, x: &CVec, cond: &OtaConditions, rng: &mut SimRng, out: &mut Vec<f64>) {
        let u = x.len();
        let rows = self.channels.rows();
        if rows < FUSED_MIN_ROWS {
            // Below the break-even class count the chip stage cannot
            // amortize, and the scalar path's interleaved complex ops
            // already pair re/im into SIMD lanes — it is simply faster.
            // The two paths are bitwise identical (proptest-pinned), so
            // this dispatch is invisible in every output and RNG stream.
            self.score_rows_scalar(x, cond, rng, out);
            return;
        }
        let noise_var = cond.awgn.variance * noise_draws_per_row(u, cond.cancellation) as f64;
        let planes = self.planes.as_ref();
        let mf = &cond.mts_factor[..u];

        SCRATCH.with(|cell| {
            let mut borrow = cell.borrow_mut();
            borrow.stage_chips(x, cond);
            let s = &*borrow;

            out.clear();
            out.reserve(rows);
            let finalize = |acc: (f64, f64), rng: &mut SimRng, out: &mut Vec<f64>| {
                let mut z = C64::new(acc.0, acc.1);
                if noise_var > 0.0 {
                    z += rng.complex_gaussian(noise_var);
                }
                out.push(z.abs());
            };

            let mut r = 0;
            while r + ROW_BLOCK <= rows {
                for acc in sweep::by8(planes, r, s, mf, cond.cancellation) {
                    finalize(acc, rng, out);
                }
                r += ROW_BLOCK;
            }
            if r + 4 <= rows {
                for acc in sweep::by4(planes, r, s, mf, cond.cancellation) {
                    finalize(acc, rng, out);
                }
                r += 4;
            }
            if r + 2 <= rows {
                for acc in sweep::by2(planes, r, s, mf, cond.cancellation) {
                    finalize(acc, rng, out);
                }
                r += 2;
            }
            if r < rows {
                let [acc] = sweep::by1(planes, r, s, mf, cond.cancellation);
                finalize(acc, rng, out);
            }
        });
    }

    /// The scalar reference kernel: the pre-fusion per-row loop, kept as
    /// the executable specification the fused kernel is proptested against
    /// (perfbench times it as `core.engine.kernel_scalar_us`). It is
    /// also the production path below `FUSED_MIN_ROWS` output rows,
    /// where the fused kernel's chip stage cannot amortize.
    ///
    /// Performs `K×U` chip re-derivations where the fused kernel does `U`;
    /// output and RNG consumption are bitwise identical to
    /// [`OtaEngine::scores`].
    pub fn scores_scalar(&self, x: &CVec, cond: &OtaConditions, rng: &mut SimRng) -> Vec<f64> {
        self.check_shapes(x, cond);
        let mut out = Vec::with_capacity(self.channels.rows());
        self.score_rows_scalar(x, cond, rng, &mut out);
        out
    }

    fn score_rows_scalar(
        &self,
        x: &CVec,
        cond: &OtaConditions,
        rng: &mut SimRng,
        out: &mut Vec<f64>,
    ) {
        let u = x.len();
        let offset = cyclic_offset(cond.sync_shift, u);
        let xs = x.as_slice();
        let noise_var = cond.awgn.variance * noise_draws_per_row(u, cond.cancellation) as f64;

        out.clear();
        out.reserve(self.channels.rows());
        for r in 0..self.channels.rows() {
            let h_row = self.channels.row(r);
            let mut acc = C64::ZERO;
            for (i, &hri) in h_row.iter().enumerate() {
                // Index-based cyclic shift: xs[(i + shift) mod u] without
                // materializing a shifted copy per row.
                let h = hri * cond.mts_factor[i];
                let he = cond.env.gain_at(i);
                acc += symbol_signal(h, he, xs[shifted_index(i, offset, u)], cond.cancellation);
            }
            if noise_var > 0.0 {
                acc += rng.complex_gaussian(noise_var);
            }
            out.push(acc.abs());
        }
    }

    /// Class scores for one input.
    pub fn scores(&self, x: &CVec, cond: &OtaConditions, rng: &mut SimRng) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.channels.rows());
        self.scores_into(x, cond, rng, &mut out);
        out
    }

    /// Classifies one input.
    pub fn predict(&self, x: &CVec, cond: &OtaConditions, rng: &mut SimRng) -> usize {
        let mut out = Vec::with_capacity(self.channels.rows());
        self.scores_into(x, cond, rng, &mut out);
        argmax(&out)
    }

    /// One traced inference: every chip and accumulator state recorded.
    ///
    /// The per-symbol values come from the same chip stage
    /// (`EngineScratch::stage_chips`) the scoring kernel reads, and the
    /// signal arithmetic is the shared `chip_signal` — so traced and
    /// untraced scores are bitwise identical in the noiseless case.
    /// Receiver noise, when enabled, is resolved per chip here (the trace
    /// reports chip-level values) while the scoring kernel draws the
    /// distributionally identical row-level aggregate.
    pub fn traced(&self, x: &CVec, cond: &OtaConditions, rng: &mut SimRng) -> InferenceTrace {
        assert!(cond.cancellation, "the trace records the chip-level scheme");
        self.check_shapes(x, cond);
        let u = x.len();
        let noisy = cond.awgn.variance > 0.0;

        let r_total = self.channels.rows();
        let mut rows = Vec::with_capacity(r_total * u);
        let mut scores = Vec::with_capacity(r_total);
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.stage_chips(x, cond);
            for r in 0..r_total {
                let h_row = self.channels.row(r);
                let mut acc = C64::ZERO;
                for (i, &hri) in h_row.iter().enumerate() {
                    let xi = C64::new(s.x_re[i], s.x_im[i]);
                    let he = C64::new(s.e_re[i], s.e_im[i]);
                    let h = hri * cond.mts_factor[i];
                    let mut chips = [C64::ZERO; shaping::SLOTS_PER_SYMBOL];
                    let mut sum = C64::ZERO;
                    for (slot, chip_out) in chips.iter_mut().enumerate() {
                        let mut y = chip_signal(h, he, xi, slot);
                        if noisy {
                            y += cond.awgn.sample(rng);
                        }
                        *chip_out = y;
                        sum += y;
                    }
                    acc += sum;
                    rows.push(TraceRow {
                        output: r,
                        symbol: i,
                        x: xi,
                        weight: h,
                        env: he,
                        chips,
                        accumulator: acc,
                    });
                }
                scores.push(acc.abs());
            }
        });

        let predicted = argmax(&scores);
        if let Some(m) = tele() {
            let chips = (r_total * u * shaping::SLOTS_PER_SYMBOL) as u64;
            m.traces.inc();
            m.samples.inc();
            m.chips.add(chips);
            if noisy {
                // Trace mode resolves noise per chip, not per row.
                m.awgn_draws.add(chips);
            }
        }
        InferenceTrace {
            rows,
            scores,
            predicted,
        }
    }

    /// Runs one request with an explicit RNG.
    pub fn run(&self, request: &InferenceRequest<'_>, rng: &mut SimRng) -> InferenceOutcome {
        if request.trace {
            let trace = self.traced(request.input, &request.conditions, rng);
            InferenceOutcome {
                scores: trace.scores.clone(),
                predicted: trace.predicted,
                trace: Some(trace),
            }
        } else {
            let scores = self.scores(request.input, &request.conditions, rng);
            InferenceOutcome {
                predicted: argmax(&scores),
                scores,
                trace: None,
            }
        }
    }

    /// Runs a batch of requests in parallel. Request `i` draws from the
    /// counter-derived stream `derive_indexed(seed, stream, i)`, so the
    /// result is bitwise independent of the worker count.
    pub fn run_batch(
        &self,
        requests: &[InferenceRequest<'_>],
        seed: u64,
        stream: u64,
    ) -> Vec<InferenceOutcome> {
        if let Some(m) = tele() {
            m.batches.inc();
        }
        self.chunked(requests.len(), |i| {
            let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
            self.run(&requests[i], &mut rng)
        })
    }

    /// Runs a batch of inputs under per-sample conditions built by
    /// `make_cond` (called first on each sample's derived RNG, exactly as
    /// the scalar path would).
    pub fn batch_with<F>(
        &self,
        inputs: &[CVec],
        seed: u64,
        stream: u64,
        make_cond: F,
    ) -> Vec<InferenceOutcome>
    where
        F: Fn(&mut SimRng) -> OtaConditions + Sync,
    {
        if let Some(m) = tele() {
            m.batches.inc();
        }
        self.chunked(inputs.len(), |i| {
            let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
            let cond = make_cond(&mut rng);
            let scores = self.scores(&inputs[i], &cond, &mut rng);
            InferenceOutcome {
                predicted: argmax(&scores),
                scores,
                trace: None,
            }
        })
    }

    /// Batch classification only — the accuracy hot path. Each worker
    /// reuses one score buffer across its whole chunk, so the per-sample
    /// cost is pure arithmetic (no allocation at all).
    pub fn batch_predict_with<F>(
        &self,
        inputs: &[CVec],
        seed: u64,
        stream: u64,
        make_cond: F,
    ) -> Vec<usize>
    where
        F: Fn(&mut SimRng) -> OtaConditions + Sync,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        if let Some(m) = tele() {
            m.batches.inc();
        }
        let nested: Vec<Vec<usize>> = (0..n.div_ceil(BATCH_CHUNK))
            .into_par_iter()
            .map(|c| {
                let lo = c * BATCH_CHUNK;
                let hi = ((c + 1) * BATCH_CHUNK).min(n);
                let mut scratch = Vec::with_capacity(self.channels.rows());
                (lo..hi)
                    .map(|i| {
                        let mut rng = SimRng::derive_indexed(seed, stream, i as u64);
                        let cond = make_cond(&mut rng);
                        self.scores_into(&inputs[i], &cond, &mut rng, &mut scratch);
                        argmax(&scratch)
                    })
                    .collect()
            })
            .collect();
        nested.into_iter().flatten().collect()
    }

    /// Order-preserving chunked parallel map over `0..n`.
    fn chunked<T, F>(&self, n: usize, per_item: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let nested: Vec<Vec<T>> = (0..n.div_ceil(BATCH_CHUNK))
            .into_par_iter()
            .map(|c| {
                let lo = c * BATCH_CHUNK;
                let hi = ((c + 1) * BATCH_CHUNK).min(n);
                (lo..hi).map(&per_item).collect()
            })
            .collect();
        nested.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ota::OtaReceiver;
    use metaai_rf::environment::EnvChannel;
    use metaai_rf::noise::Awgn;

    fn setup(rows: usize, u: usize, seed: u64) -> (CMat, Vec<CVec>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let h = CMat::from_fn(rows, u, |_, _| rng.complex_gaussian(1.0));
        let inputs = (0..6)
            .map(|_| CVec::from_fn(u, |_| rng.complex_gaussian(1.0)))
            .collect();
        (h, inputs)
    }

    fn busy_conditions(u: usize, seed: u64, noisy: bool) -> OtaConditions {
        let mut rng = SimRng::seed_from_u64(seed);
        OtaConditions {
            env: EnvChannel::constant(rng.complex_gaussian(0.5), u),
            mts_factor: (0..u).map(|_| 0.5 + rng.uniform()).collect(),
            awgn: Awgn {
                variance: if noisy { 0.02 } else { 0.0 },
            },
            sync_shift: -3,
            cancellation: true,
        }
    }

    /// CI's x86 hosts only run the AVX2 sweeps, so drive the portable
    /// body (what non-x86 builds ship) against every AVX2 block width
    /// directly, with and without cancellation.
    #[test]
    fn sweep_rows_isa_paths_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                println!("note: no AVX2 on this host; ISA parity not checked");
                return;
            }
            fn words<const N: usize>(acc: [(f64, f64); N]) -> Vec<u64> {
                acc.iter()
                    .flat_map(|&(re, im)| [re.to_bits(), im.to_bits()])
                    .collect()
            }
            let mut rng = SimRng::seed_from_u64(61);
            let (rows, u) = (16, 37);
            let planes =
                CPlanes::from_cmat(&CMat::from_fn(rows, u, |_, _| rng.complex_gaussian(1.0)));
            let mut draw = || -> Vec<f64> { (0..u).map(|_| rng.normal(0.0, 1.0)).collect() };
            let s = EngineScratch {
                x_re: draw(),
                x_im: draw(),
                e_re: draw(),
                e_im: draw(),
            };
            let mf = draw();
            for cancellation in [false, true] {
                for first in [0, 8] {
                    // SAFETY (every block): AVX2 presence checked above.
                    assert_eq!(
                        words(sweep_rows::<8>(&planes, first, &s, &mf, cancellation)),
                        words(unsafe {
                            sweep_x86::by8_avx2(&planes, first, &s, &mf, cancellation)
                        })
                    );
                }
                for first in [0, 4, 12] {
                    assert_eq!(
                        words(sweep_rows::<4>(&planes, first, &s, &mf, cancellation)),
                        words(unsafe {
                            sweep_x86::by4_avx2(&planes, first, &s, &mf, cancellation)
                        })
                    );
                }
                for first in [0, 6, 14] {
                    assert_eq!(
                        words(sweep_rows::<2>(&planes, first, &s, &mf, cancellation)),
                        words(unsafe {
                            sweep_x86::by2_avx2(&planes, first, &s, &mf, cancellation)
                        })
                    );
                }
                for first in [0, 7, 15] {
                    assert_eq!(
                        words(sweep_rows::<1>(&planes, first, &s, &mf, cancellation)),
                        words(unsafe {
                            sweep_x86::by1_avx2(&planes, first, &s, &mf, cancellation)
                        })
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("note: not an x86-64 host; only the portable sweeps exist");
    }

    #[test]
    fn noiseless_scores_match_the_reference_accumulator_exactly() {
        let (h, inputs) = setup(4, 9, 1);
        let cond = busy_conditions(9, 2, false);
        let engine = OtaEngine::new(&h);
        for x in &inputs {
            let mut rng = SimRng::seed_from_u64(3);
            let fast = engine.scores(x, &cond, &mut rng);
            for (r, s) in fast.iter().enumerate() {
                let mut rr = SimRng::seed_from_u64(3);
                let reference = OtaReceiver::accumulate(h.row(r), x, &cond, &mut rr).abs();
                assert!(
                    (s - reference).abs() < 1e-12,
                    "row {r}: engine {s} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let (h, inputs) = setup(3, 12, 4);
        let cond = busy_conditions(12, 5, true);
        let engine = OtaEngine::new(&h);
        let stream = SimRng::stream_id("test-batch");
        let outcomes = engine.batch_with(&inputs, 7, stream, |_| cond.clone());
        assert_eq!(outcomes.len(), inputs.len());
        for (i, o) in outcomes.iter().enumerate() {
            let mut rng = SimRng::derive_indexed(7, stream, i as u64);
            let scalar = engine.scores(&inputs[i], &cond, &mut rng);
            assert_eq!(o.scores.len(), scalar.len());
            for (a, b) in o.scores.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(o.predicted, argmax(&scalar));
        }
    }

    #[test]
    fn aggregated_noise_has_the_reference_variance() {
        // The engine's one-draw row noise must have the same distribution
        // as the reference's per-chip draws: compare score variances over
        // many trials on a zero channel (scores are then pure noise).
        let h = CMat::zeros(1, 16);
        let x = CVec::from_fn(16, |_| C64::ZERO);
        let mut cond = OtaConditions::ideal(16);
        cond.awgn = Awgn { variance: 0.1 };
        let engine = OtaEngine::new(&h);
        let trials = 4000;
        let mean_sq = |f: &mut dyn FnMut(&mut SimRng) -> f64| -> f64 {
            (0..trials)
                .map(|i| {
                    let mut rng = SimRng::derive_indexed(11, 22, i as u64);
                    let v = f(&mut rng);
                    v * v
                })
                .sum::<f64>()
                / trials as f64
        };
        let engine_power = mean_sq(&mut |rng| engine.scores(&x, &cond, rng)[0]);
        let reference_power =
            mean_sq(&mut |rng| OtaReceiver::accumulate(h.row(0), &x, &cond, rng).abs());
        // Both should be 2U·σ² = 3.2; allow sampling error.
        let expected = 0.1 * 32.0;
        assert!(
            (engine_power - expected).abs() < 0.15 * expected,
            "engine noise power {engine_power} vs {expected}"
        );
        assert!(
            (reference_power - expected).abs() < 0.15 * expected,
            "reference noise power {reference_power} vs {expected}"
        );
    }

    #[test]
    fn trace_mode_matches_untraced_bitwise_without_noise() {
        let (h, inputs) = setup(3, 7, 6);
        let cond = busy_conditions(7, 7, false);
        let engine = OtaEngine::new(&h);
        let mut r1 = SimRng::seed_from_u64(8);
        let mut r2 = SimRng::seed_from_u64(8);
        let trace = engine.traced(&inputs[0], &cond, &mut r1);
        let scores = engine.scores(&inputs[0], &cond, &mut r2);
        for (a, b) in trace.scores.iter().zip(&scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(trace.rows.len(), 3 * 7);
    }

    #[test]
    fn run_honours_the_trace_flag() {
        let (h, inputs) = setup(2, 5, 9);
        let cond = OtaConditions::ideal(5);
        let engine = OtaEngine::new(&h);
        let mut rng = SimRng::seed_from_u64(1);
        let plain = engine.run(&InferenceRequest::new(&inputs[0], cond.clone()), &mut rng);
        assert!(plain.trace.is_none());
        let mut rng = SimRng::seed_from_u64(1);
        let traced = engine.run(
            &InferenceRequest::new(&inputs[0], cond).with_trace(),
            &mut rng,
        );
        let trace = traced.trace.expect("trace requested");
        assert_eq!(trace.scores, traced.scores);
        assert_eq!(plain.predicted, traced.predicted);
    }

    #[test]
    fn run_batch_handles_mixed_trace_requests() {
        let (h, inputs) = setup(2, 6, 10);
        let cond = OtaConditions::ideal(6);
        let engine = OtaEngine::new(&h);
        let requests: Vec<InferenceRequest<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let req = InferenceRequest::new(x, cond.clone());
                if i % 2 == 0 {
                    req.with_trace()
                } else {
                    req
                }
            })
            .collect();
        let outcomes = engine.run_batch(&requests, 3, 4);
        assert_eq!(outcomes.len(), requests.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.trace.is_some(), i % 2 == 0);
            assert_eq!(o.predicted, argmax(&o.scores));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (h, _) = setup(2, 4, 11);
        let engine = OtaEngine::new(&h);
        assert!(engine
            .batch_with(&[], 1, 2, |_| OtaConditions::ideal(4))
            .is_empty());
        assert!(engine
            .batch_predict_with(&[], 1, 2, |_| OtaConditions::ideal(4))
            .is_empty());
    }

    #[test]
    fn fused_matches_scalar_reference_bitwise() {
        let (h, inputs) = setup(5, 11, 20);
        let engine = OtaEngine::new(&h);
        for &(shift, noisy, cancel) in &[
            (-3isize, true, true),
            (0, false, true),
            (7, true, false),
            (25, false, false),
        ] {
            let mut cond = busy_conditions(11, 21, noisy);
            cond.sync_shift = shift;
            cond.cancellation = cancel;
            for x in &inputs {
                let mut r1 = SimRng::seed_from_u64(5);
                let mut r2 = SimRng::seed_from_u64(5);
                let fused = engine.scores(x, &cond, &mut r1);
                let scalar = engine.scores_scalar(x, &cond, &mut r2);
                assert_eq!(fused.len(), scalar.len());
                for (a, b) in fused.iter().zip(&scalar) {
                    assert_eq!(a.to_bits(), b.to_bits(), "shift {shift}");
                }
            }
        }
    }

    #[test]
    fn borrowed_planes_match_owned_planes_bitwise() {
        let (h, inputs) = setup(4, 8, 22);
        let cond = busy_conditions(8, 23, true);
        let planes = metaai_math::CPlanes::from_cmat(&h);
        let owned = OtaEngine::new(&h);
        let lent = OtaEngine::with_planes(&h, &planes);
        for x in &inputs {
            let mut r1 = SimRng::seed_from_u64(9);
            let mut r2 = SimRng::seed_from_u64(9);
            assert_eq!(
                owned.scores(x, &cond, &mut r1),
                lent.scores(x, &cond, &mut r2)
            );
        }
    }

    #[test]
    fn predictions_agree_between_batch_apis() {
        let (h, inputs) = setup(5, 10, 12);
        let engine = OtaEngine::new(&h);
        let make = |rng: &mut SimRng| {
            let mut cond = busy_conditions(10, 13, true);
            cond.sync_shift = rng.below(10) as isize;
            cond
        };
        let full = engine.batch_with(&inputs, 5, 6, make);
        let preds = engine.batch_predict_with(&inputs, 5, 6, make);
        assert_eq!(full.iter().map(|o| o.predicted).collect::<Vec<_>>(), preds);
    }
}
