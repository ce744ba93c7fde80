//! Per-layer 2-bit quantization of the stack, with residual compensation.
//!
//! This is the one solve loop of the workspace: the paper's single
//! surface is the one-layer case, and `metaai::mapper::WeightMapper`
//! is a one-layer [`StackSolver`]. Each layer runs a [`WeightSolver`]
//! over that hop's path phasors and its precomputed [`StateTable`]. The
//! weights are solved in chunks, layer by layer: one
//! [`solve_batch`](WeightSolver::solve_batch) (cold) or
//! [`solve_batch_warm`](WeightSolver::solve_batch_warm) call per chunk
//! and layer runs the lane kernel, with one [`SolverScratch`] per chunk
//! (cold, rayon-parallel over chunks) or the caller's (warm, sequential).
//! Layer `l` scales its factor by
//! `σ_l = κ·reach_l / max|W_l|`, which places the largest weight at
//! `κ·reach` — a global factor, so classification is unchanged (Sec 3.2
//! of the paper).
//!
//! The cascade multiplies per-layer *achieved* sums, so quantization
//! errors compound multiplicatively — unless later layers aim at what the
//! earlier ones actually delivered. Solving layers in path order (a whole
//! chunk's layer `l − 1` before its layer `l`), layer `l ≥ 1`'s target is
//!
//! ```text
//! t_l[r,i] = σ_l·W_l[r,i] · (Π_{k<l} σ_k·W_k[r,i]) / (Π_{k<l} A_k[r,i])
//! ```
//!
//! clamped to the layer's disc of radius `κ·reach_l`: the correction
//! ratio steers the running product back onto the ideal trajectory,
//! giving every weight L greedy descent shots at its target instead of
//! one, and the clamp stops a small achieved product from blowing the
//! quotient up. Layer 0 aims at its own scaled weight `σ_0·W_0[r,i]`
//! unclamped — it has no division, and σ_0 already bounds it. The last
//! layer also folds in the Eqn-8 environmental offset (for one layer,
//! exactly the paper's `σ·w − H_e/α`).

use crate::stack::StackGeometry;
use metaai_math::{CMat, C64};
use metaai_mts::atom::PackedCodes;
use metaai_mts::channel::{MtsLink, RealizationTable};
use metaai_mts::solver::{BatchOutput, SolverScratch, StateTable, WeightSolver};
use metaai_telemetry::{Counter, Histogram};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Stack-solver instruments, registered once with the global registry.
struct StackMetrics {
    solves: Counter,
    weights_solved: Counter,
    solve_seconds: Histogram,
}

fn metrics() -> &'static StackMetrics {
    static METRICS: OnceLock<StackMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        StackMetrics {
            solves: r.counter("metaai.sim.stack.solves"),
            weights_solved: r.counter("metaai.sim.stack.weights_solved"),
            solve_seconds: r.latency_histogram("metaai.sim.stack.solve_seconds"),
        }
    })
}

/// Registers the stack solver's instruments with the global registry.
pub fn register_metrics() {
    let _ = metrics();
}

/// Weights per chunk: one parallel work item of [`StackSolver::solve`],
/// one lane-kernel batch per layer, and one step of
/// [`StackSolver::resolve_warm`]'s sequential loop. A chunk's descents
/// finish at different sweeps, so a longer batch keeps the kernel's lanes
/// filled for a larger share of the chunk.
const SOLVE_CHUNK: usize = 128;

/// One surface's solved programme for one trained network: one
/// configuration per (output class, input symbol).
#[derive(Clone, Debug)]
pub struct WeightSchedule {
    /// The `R × U` configurations, row-major: weight `(r, i)` is
    /// configuration `r·U + i`.
    codes: PackedCodes,
    /// Achieved normalized channel sums (`Σ e^{j(φ^p+φ)}`), `R × U`.
    pub achieved: CMat,
    /// The scale σ applied to this layer's weights before solving.
    pub scale: f64,
    /// RMS solver residual across all weights (normalized units), against
    /// this layer's (compensated) targets.
    pub rms_residual: f64,
}

impl WeightSchedule {
    /// A schedule from its packed configurations, `achieved`'s `R × U`
    /// of them in row-major order.
    pub fn new(codes: PackedCodes, achieved: CMat, scale: f64, rms_residual: f64) -> Self {
        assert_eq!(
            codes.len(),
            achieved.rows() * achieved.cols(),
            "one configuration per weight"
        );
        WeightSchedule {
            codes,
            achieved,
            scale,
            rms_residual,
        }
    }

    /// Number of output classes.
    pub fn num_outputs(&self) -> usize {
        self.achieved.rows()
    }

    /// Number of input symbols.
    pub fn num_symbols(&self) -> usize {
        self.achieved.cols()
    }

    /// The configuration realizing weight `(row, col)`: one state index
    /// per atom, at the schedule's depth (`packed().bits()`).
    pub fn codes(&self, row: usize, col: usize) -> &[u8] {
        assert!(col < self.num_symbols(), "symbol {col} out of range");
        self.codes.row(row * self.num_symbols() + col)
    }

    /// Every configuration, packed.
    pub fn packed(&self) -> &PackedCodes {
        &self.codes
    }

    /// Relative weight-realization error against the `weights` this
    /// schedule was solved for: RMS residual divided by the RMS of the
    /// scaled targets. Small values (≪ 1) mean the hardware faithfully
    /// reproduces the trained network.
    pub fn relative_error(&self, weights: &CMat) -> f64 {
        let rms_target =
            self.scale * weights.fro_norm() / ((weights.rows() * weights.cols()) as f64).sqrt();
        self.rms_residual / rms_target
    }
}

/// The full cascade programme: one [`WeightSchedule`] per layer, each
/// behind an [`Arc`] so a deployment can hand layer 0 out without a copy.
#[derive(Clone, Debug)]
pub struct StackSchedule {
    /// Layer schedules in path order.
    pub layers: Vec<Arc<WeightSchedule>>,
}

impl StackSchedule {
    /// Number of output classes.
    pub fn num_outputs(&self) -> usize {
        self.layers[0].achieved.rows()
    }

    /// Number of input symbols.
    pub fn num_symbols(&self) -> usize {
        self.layers[0].achieved.cols()
    }

    /// Relative realization error of the deployed programme. One layer
    /// reports its own RMS-residual rule
    /// ([`WeightSchedule::relative_error`]); a cascade reports the
    /// Frobenius distance between the achieved product `Π A_l` and the
    /// ideal `Π σ_l·W_l`, over the ideal's norm. The two agree
    /// mathematically for one layer, not bit for bit.
    pub fn relative_error(&self, factors: &[CMat]) -> f64 {
        assert_eq!(factors.len(), self.layers.len(), "one factor per layer");
        if let [layer] = self.layers.as_slice() {
            return layer.relative_error(&factors[0]);
        }
        let (r, u) = (self.num_outputs(), self.num_symbols());
        let mut err_sq = 0.0;
        let mut ideal_sq = 0.0;
        for row in 0..r {
            for col in 0..u {
                let mut ideal = C64::ONE;
                let mut achieved = C64::ONE;
                for (f, l) in factors.iter().zip(&self.layers) {
                    ideal *= f[(row, col)] * l.scale;
                    achieved *= l.achieved[(row, col)];
                }
                err_sq += (achieved - ideal).norm_sq();
                ideal_sq += ideal.norm_sq();
            }
        }
        (err_sq / ideal_sq.max(f64::MIN_POSITIVE)).sqrt()
    }
}

/// Per-layer solver state shared by every weight's solve.
struct LayerSolver {
    solver: WeightSolver,
    table: StateTable,
    /// `κ·reach`: where σ places the largest weight, and the radius
    /// compensated targets are clamped to.
    limit: f64,
}

/// What every chunk of one solve reads.
struct Job<'a> {
    factors: &'a [CMat],
    scales: Vec<f64>,
    env_offset_norm: C64,
    /// One schedule per layer to warm-start from, or none for a cold solve.
    warm: Option<Vec<&'a WeightSchedule>>,
}

/// One layer's results for all `R·U` weights, in weight order: the
/// packed codes, achieved sums and residuals the lane kernel writes.
struct LayerResults {
    codes: Vec<u8>,
    achieved: CMat,
    residual: Vec<f64>,
}

/// One chunk of a solve: its weights, and per layer the slices of the
/// [`LayerResults`] its batches write.
type Chunk<'v, 'b> = (Range<usize>, &'v mut [BatchOutput<'b>]);

/// A chunk's per-layer working vectors, reused from chunk to chunk.
#[derive(Default)]
struct ChunkScratch {
    ideal_prod: Vec<C64>,
    achieved_prod: Vec<C64>,
    ideals: Vec<C64>,
    targets: Vec<C64>,
}

/// Quantizes stack factors onto the cascade's surfaces, one 2-bit solve
/// per (layer, output, symbol).
pub struct StackSolver {
    layers: Vec<LayerSolver>,
    /// κ safety factor shared by every layer.
    pub kappa: f64,
}

impl StackSolver {
    /// Builds per-layer solvers over `geom`'s hop links.
    pub fn new(geom: &StackGeometry, kappa: f64) -> Self {
        StackSolver::from_links(&geom.links, kappa)
    }

    /// Builds one layer solver per hop link, in path order.
    pub fn from_links(links: &[MtsLink], kappa: f64) -> Self {
        // κ = 0 would scale every weight to the origin and make the
        // schedule meaningless, so zero is excluded.
        assert!(kappa > 0.0 && kappa <= 1.0, "κ must be in (0, 1]");
        let layers = links
            .iter()
            .map(|link| {
                let solver = WeightSolver::single(link.path_phasors.clone(), 2);
                let table = solver.state_table();
                let limit = kappa * solver.reachable_radius(0);
                LayerSolver {
                    solver,
                    table,
                    limit,
                }
            })
            .collect();
        StackSolver { layers, kappa }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer scales `σ_l = κ·reach_l / max|W_l|`.
    pub fn scales(&self, factors: &[CMat]) -> Vec<f64> {
        assert_eq!(factors.len(), self.layers.len(), "one factor per layer");
        self.layers
            .iter()
            .zip(factors)
            .map(|(l, f)| {
                let max_w = f.max_abs();
                assert!(max_w > 0.0, "cannot map an all-zero weight factor");
                l.limit / max_w
            })
            .collect()
    }

    /// Solves the chunk's weights `range` (row-major indices into the
    /// `r × u` factors) through every layer in path order, into `outs`
    /// (one per layer), compensating each layer's target for the residual
    /// the previous layers actually accumulated. Layer `l`'s targets for
    /// the whole range are formed from layer `l − 1`'s achieved sums, each
    /// weight with the operations of a one-weight-at-a-time cascade, and
    /// solved as one lane-kernel batch.
    fn solve_chunk(
        &self,
        job: &Job<'_>,
        (range, outs): Chunk<'_, '_>,
        scratch: &mut SolverScratch,
        chunk: &mut ChunkScratch,
    ) {
        let last = self.layers.len() - 1;
        let u = job.factors[0].cols();
        let n = range.len();
        let ChunkScratch {
            ideal_prod,
            achieved_prod,
            ideals,
            targets,
        } = chunk;
        ideal_prod.clear();
        ideal_prod.resize(n, C64::ONE);
        achieved_prod.clear();
        achieved_prod.resize(n, C64::ONE);
        for ((l, layer), out) in self.layers.iter().enumerate().zip(outs) {
            ideals.clear();
            targets.clear();
            for (j, idx) in range.clone().enumerate() {
                let ideal = job.factors[l][(idx / u, idx % u)] * job.scales[l];
                let mut target = if l == 0 { ideal } else { ideal_prod[j] * ideal };
                if l == last {
                    target -= job.env_offset_norm;
                }
                if l > 0 {
                    // Steer the running product back onto the ideal
                    // trajectory, within the layer's reachable disc.
                    if achieved_prod[j].norm_sq() > f64::MIN_POSITIVE {
                        target /= achieved_prod[j];
                    } else {
                        target = ideal;
                    }
                    if target.abs() > layer.limit {
                        target = C64::from_polar(layer.limit, target.arg());
                    }
                }
                ideals.push(ideal);
                targets.push(target);
            }
            let batch = BatchOutput {
                codes: &mut *out.codes,
                achieved: &mut *out.achieved,
                residual: &mut *out.residual,
            };
            match &job.warm {
                Some(w) => {
                    let m = layer.solver.num_atoms();
                    let initial = &w[l].packed().as_slice()[range.start * m..range.end * m];
                    layer
                        .solver
                        .solve_batch_warm(targets, initial, &layer.table, scratch, batch)
                }
                None => layer
                    .solver
                    .solve_batch(targets, &layer.table, scratch, batch),
            };
            for j in 0..n {
                ideal_prod[j] *= ideals[j];
                achieved_prod[j] *= out.achieved[j];
            }
        }
    }

    /// Runs `job` over every chunk of the `r × u` weights with `run`,
    /// which must hand each [`Chunk`] to [`solve_chunk`](Self::solve_chunk)
    /// once, and assembles the per-layer schedules: each layer's results
    /// are written in place, and its squared residuals summed in weight
    /// order.
    fn solve_chunks(
        &self,
        job: &Job<'_>,
        run: impl for<'v, 'b> FnOnce(Vec<Chunk<'v, 'b>>),
    ) -> StackSchedule {
        let (r, u) = (job.factors[0].rows(), job.factors[0].cols());
        let total = r * u;
        let mut results: Vec<LayerResults> = self
            .layers
            .iter()
            .map(|layer| LayerResults {
                codes: vec![0; total * layer.solver.num_atoms()],
                achieved: CMat::zeros(r, u),
                residual: vec![0.0; total],
            })
            .collect();
        // Every chunk's per-layer output slices, chunk-major.
        let mut layer_chunks: Vec<_> = results
            .iter_mut()
            .zip(&self.layers)
            .map(|(res, layer)| {
                let m = layer.solver.num_atoms();
                res.codes
                    .chunks_mut(SOLVE_CHUNK * m)
                    .zip(res.achieved.as_mut_slice().chunks_mut(SOLVE_CHUNK))
                    .zip(res.residual.chunks_mut(SOLVE_CHUNK))
            })
            .collect();
        let n_chunks = total.div_ceil(SOLVE_CHUNK);
        let mut outs = Vec::with_capacity(n_chunks * self.layers.len());
        for _ in 0..n_chunks {
            for slices in &mut layer_chunks {
                let ((codes, achieved), residual) = slices.next().expect("one slice per chunk");
                outs.push(BatchOutput {
                    codes,
                    achieved,
                    residual,
                });
            }
        }
        drop(layer_chunks);
        let chunks: Vec<Chunk<'_, '_>> = outs
            .chunks_mut(self.layers.len())
            .enumerate()
            .map(|(c, outs)| {
                let lo = c * SOLVE_CHUNK;
                (lo..(lo + SOLVE_CHUNK).min(total), outs)
            })
            .collect();
        run(chunks);
        drop(outs);

        let layers = results
            .into_iter()
            .zip(&self.layers)
            .zip(&job.scales)
            .map(|((res, layer), &scale)| {
                let mut sq_sum = 0.0;
                for r in &res.residual {
                    sq_sum += r * r;
                }
                let codes = PackedCodes::from_indices(
                    res.codes,
                    layer.solver.num_atoms(),
                    layer.solver.bits,
                );
                Arc::new(WeightSchedule::new(
                    codes,
                    res.achieved,
                    scale,
                    (sq_sum / total as f64).sqrt(),
                ))
            })
            .collect();
        StackSchedule { layers }
    }

    /// Solves the full cascade programme for `factors` (cold start,
    /// rayon-parallel over chunks of weights, one [`SolverScratch`] per
    /// worker; chunking cannot influence results because every weight's L
    /// solves are independent of its neighbours). `env_offset_norm` is the
    /// Eqn-8 compensation in the cascade's normalized units
    /// (`H_e / Π_l α_l`), or zero.
    pub fn solve(&self, factors: &[CMat], env_offset_norm: C64) -> StackSchedule {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.solve_seconds.span());
        let job = Job {
            factors,
            scales: self.scales(factors),
            env_offset_norm,
            warm: None,
        };
        if let Some(m) = tele {
            m.solves.inc();
            m.weights_solved
                .add((self.layers.len() * factors[0].rows() * factors[0].cols()) as u64);
        }
        self.solve_chunks(&job, |chunks| {
            chunks.into_par_iter().for_each_init(
                || (SolverScratch::new(), ChunkScratch::default()),
                |(scratch, buffers), chunk| self.solve_chunk(&job, chunk, scratch, buffers),
            )
        })
    }

    /// [`solve`](Self::solve), warm-started from a previous programme's
    /// per-layer schedules — the online-adaptation path: after a small
    /// channel drift the old configuration is already near the new
    /// optimum, so each solve is seeded with the previous codes instead
    /// of the phase-aligned initialization and typically converges in a
    /// sweep or two. Each chunk's warm start is one contiguous run of the
    /// previous schedule's packed codes.
    ///
    /// Deliberately **sequential** on the caller's thread with one
    /// reusable `scratch` (reuse it across rounds too): no rayon fan-out
    /// competing with serving workers, and the result is a pure function
    /// of its inputs. The lane kernel's parallelism is within one thread.
    pub fn resolve_warm<W: Borrow<WeightSchedule>>(
        &self,
        factors: &[CMat],
        env_offset_norm: C64,
        warm: &[W],
        scratch: &mut SolverScratch,
    ) -> StackSchedule {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.solve_seconds.span());
        let (r, u) = (factors[0].rows(), factors[0].cols());
        let warm: Vec<&WeightSchedule> = warm.iter().map(Borrow::borrow).collect();
        assert_eq!(warm.len(), self.layers.len(), "one warm schedule per layer");
        for (w, layer) in warm.iter().zip(&self.layers) {
            assert_eq!(
                (w.num_outputs(), w.num_symbols()),
                (r, u),
                "warm schedule shape must match the weight factors"
            );
            assert_eq!(
                (w.packed().num_atoms(), w.packed().bits()),
                (layer.solver.num_atoms(), layer.solver.bits),
                "warm schedule must program this layer's atoms at its depth"
            );
        }
        let job = Job {
            factors,
            scales: self.scales(factors),
            env_offset_norm,
            warm: Some(warm),
        };
        if let Some(m) = tele {
            m.solves.inc();
            m.weights_solved.add((self.layers.len() * r * u) as u64);
        }
        let mut buffers = ChunkScratch::default();
        self.solve_chunks(&job, |chunks| {
            for chunk in chunks {
                self.solve_chunk(&job, chunk, scratch, &mut buffers);
            }
        })
    }
}

/// Realizes the cascade's *physical* effective channel `H_eff[r, i] =
/// Π_l α_l · A_l[r, i]` on (possibly imperfect) surfaces: per-atom
/// fabrication phase errors and stuck-at faults apply on top of each
/// layer's programmed codes — the stacked analogue of the single-surface
/// `realize_channels`, gathering each layer's packed rows from its own
/// [`RealizationTable`]. Runs sequentially on the caller's thread.
pub fn realize_stack(geom: &StackGeometry, schedule: &StackSchedule) -> CMat {
    assert_eq!(
        geom.num_layers(),
        schedule.layers.len(),
        "geometry/schedule layer mismatch"
    );
    let (r, u) = (schedule.num_outputs(), schedule.num_symbols());
    let sums: Vec<Vec<C64>> = geom
        .links
        .iter()
        .zip(&geom.surfaces)
        .zip(&schedule.layers)
        .map(|((link, surface), layer)| {
            let mut sums = vec![C64::ZERO; r * u];
            RealizationTable::new(link, surface).normalized_sums(layer.packed(), &mut sums);
            sums
        })
        .collect();
    CMat::from_fn(r, u, |row, col| {
        sums.iter()
            .zip(&geom.links)
            .fold(C64::ONE, |acc, (sums, link)| {
                acc * sums[row * u + col] * link.alpha
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackSpec;
    use metaai_math::rng::SimRng;
    use metaai_mts::array::Prototype;
    use metaai_mts::solver::SolveResult;
    use metaai_nn::StackWeights;
    use metaai_rf::geometry::Point3;

    fn geometry(layers: usize, total: usize) -> StackGeometry {
        StackGeometry::build(&StackSpec::new(
            Prototype::DualBand,
            5.25e9,
            Point3::new(-0.5, 0.87, 1.1),
            Point3::new(1.5, 2.6, 1.0),
            Point3::new(0.0, 0.0, 1.1),
            layers,
            total,
        ))
    }

    fn random_factors(layers: usize, r: usize, u: usize, seed: u64) -> Vec<CMat> {
        let mut rng = SimRng::seed_from_u64(seed);
        let w = CMat::from_fn(r, u, |_, _| rng.complex_gaussian(1.0));
        StackWeights::from_effective(&w, layers).factors
    }

    #[test]
    fn a_solved_cascade_tracks_the_ideal_product() {
        let geom = geometry(2, 64);
        let solver = StackSolver::new(&geom, 0.9);
        let factors = random_factors(2, 3, 6, 1);
        let sched = solver.solve(&factors, C64::ZERO);
        assert_eq!(sched.layers.len(), 2);
        assert_eq!(sched.layers[0].codes(2, 5).len(), 32);
        let rel = sched.relative_error(&factors);
        assert!(rel < 0.1, "cascade realization error {rel}");
    }

    #[test]
    fn solving_is_deterministic_and_chunking_free() {
        let geom = geometry(2, 32);
        let solver = StackSolver::new(&geom, 0.9);
        let factors = random_factors(2, 2, 5, 2);
        let a = solver.solve(&factors, C64::ZERO);
        let b = solver.solve(&factors, C64::ZERO);
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.packed(), y.packed());
            assert_eq!(x.achieved, y.achieved);
        }
    }

    #[test]
    fn residual_compensation_beats_independent_layer_solves() {
        // Solve the same factors with compensation (path order, corrected
        // targets) and without (each layer aiming only at its own ideal):
        // the composed error with compensation must not be worse.
        let geom = geometry(2, 32);
        let solver = StackSolver::new(&geom, 0.9);
        let factors = random_factors(2, 3, 8, 3);
        let sched = solver.solve(&factors, C64::ZERO);
        let compensated = sched.relative_error(&factors);

        // Independent solve: layer 1 vs its own ideal, ignoring layer 0's
        // achieved error — emulated by solving each factor as a one-layer
        // stack and composing by hand.
        let scales = solver.scales(&factors);
        let mut err_sq = 0.0;
        let mut ideal_sq = 0.0;
        let mut scratch = SolverScratch::new();
        for row in 0..3 {
            for col in 0..8 {
                let mut ideal = C64::ONE;
                let mut achieved = C64::ONE;
                for (l, layer) in solver.layers.iter().enumerate() {
                    let t = factors[l][(row, col)] * scales[l];
                    let res = layer.solver.solve_with(&[t], &layer.table, &mut scratch);
                    ideal *= t;
                    achieved *= res.achieved[0];
                }
                err_sq += (achieved - ideal).norm_sq();
                ideal_sq += ideal.norm_sq();
            }
        }
        let independent = (err_sq / ideal_sq).sqrt();
        assert!(
            compensated <= independent + 1e-12,
            "compensated {compensated} vs independent {independent}"
        );
    }

    #[test]
    fn warm_resolve_matches_cold_quality_after_a_move() {
        let geom = geometry(2, 32);
        let factors = random_factors(2, 2, 6, 4);
        let cold_solver = StackSolver::new(&geom, 0.9);
        let base = cold_solver.solve(&factors, C64::ZERO);

        let moved = geom.relinked(
            Point3::new(-0.5, 0.87, 1.1),
            Point3::new(1.1, 2.8, 1.0),
            geom.freq_hz,
        );
        let solver = StackSolver::new(&moved, 0.9);
        let cold = solver.solve(&factors, C64::ZERO);
        let mut scratch = SolverScratch::new();
        let warm = solver.resolve_warm(&factors, C64::ZERO, &base.layers, &mut scratch);
        let warm_rel = warm.relative_error(&factors);
        let cold_rel = cold.relative_error(&factors);
        assert!(
            warm_rel < cold_rel + 0.02,
            "warm {warm_rel} vs cold {cold_rel}"
        );
        // Pure function of its inputs: scratch reuse changes nothing.
        let again = solver.resolve_warm(&factors, C64::ZERO, &base.layers, &mut scratch);
        for (x, y) in warm.layers.iter().zip(&again.layers) {
            assert_eq!(x.packed(), y.packed());
        }
    }

    #[test]
    fn realize_composes_layer_sums_and_alphas() {
        let geom = geometry(2, 32);
        let solver = StackSolver::new(&geom, 0.9);
        let factors = random_factors(2, 2, 4, 5);
        let sched = solver.solve(&factors, C64::ZERO);
        let h = realize_stack(&geom, &sched);
        // Perfect hardware: the realized channel is exactly
        // Π α_l · achieved_l.
        let expect = geom.links[0].alpha
            * geom.links[1].alpha
            * sched.layers[0].achieved[(1, 3)]
            * sched.layers[1].achieved[(1, 3)];
        assert!((h[(1, 3)] - expect).abs() < 1e-12 * expect.abs().max(1.0));
    }
    #[test]
    fn packed_rows_round_trip_through_configure() {
        // Each weight's packed row, programmed onto the degraded surface,
        // reads back as the same codes, and the configured surface's own
        // channel is the realized entry bit for bit.
        let mut geom = geometry(1, 48);
        let mut rng = SimRng::seed_from_u64(8);
        geom.surfaces[0].inject_phase_noise(0.1, &mut rng);
        geom.surfaces[0].inject_stuck_faults(0.1, &mut rng);
        let solver = StackSolver::new(&geom, 0.9);
        let factors = random_factors(1, 3, 7, 9);
        let sched = solver.solve(&factors, C64::ZERO);
        let layer = &sched.layers[0];
        assert_eq!(layer.packed().len(), 3 * 7);
        assert_eq!(layer.packed().bits(), 2);
        let h = realize_stack(&geom, &sched);
        let (link, mut array) = (&geom.links[0], geom.surfaces[0].clone());
        for row in 0..3 {
            for col in 0..7 {
                array.configure(&layer.packed().phase_codes(row * 7 + col));
                let read: Vec<u8> = array.codes().iter().map(|c| c.index).collect();
                assert_eq!(read, layer.codes(row, col));
                assert!(array.codes().iter().all(|c| c.bits == 2));
                assert_eq!(link.channel(&array), h[(row, col)], "weight ({row}, {col})");
            }
        }
    }

    /// The per-weight cascade the chunked batches replaced, kept as the
    /// reference: each weight through every layer in path order, one
    /// one-target solve at a time. Also returns how many compensated
    /// targets were clamped.
    fn per_weight_reference(
        solver: &StackSolver,
        factors: &[CMat],
        env_offset_norm: C64,
        warm: Option<&StackSchedule>,
    ) -> (Vec<Vec<SolveResult>>, usize) {
        let scales = solver.scales(factors);
        let (r, u) = (factors[0].rows(), factors[0].cols());
        let last = solver.layers.len() - 1;
        let mut scratch = SolverScratch::new();
        let mut out = vec![Vec::new(); solver.layers.len()];
        let mut clamped = 0;
        for idx in 0..r * u {
            let (row, col) = (idx / u, idx % u);
            let mut ideal_prod = C64::ONE;
            let mut achieved_prod = C64::ONE;
            for (l, layer) in solver.layers.iter().enumerate() {
                let ideal = factors[l][(row, col)] * scales[l];
                let mut target = if l == 0 { ideal } else { ideal_prod * ideal };
                if l == last {
                    target -= env_offset_norm;
                }
                if l > 0 {
                    if achieved_prod.norm_sq() > f64::MIN_POSITIVE {
                        target /= achieved_prod;
                    } else {
                        target = ideal;
                    }
                    if target.abs() > layer.limit {
                        target = C64::from_polar(layer.limit, target.arg());
                        clamped += 1;
                    }
                }
                let res = match warm {
                    Some(w) => layer.solver.solve_warm(
                        &[target],
                        &w.layers[l].packed().phase_codes(idx),
                        &layer.table,
                        &mut scratch,
                    ),
                    None => layer
                        .solver
                        .solve_with(&[target], &layer.table, &mut scratch),
                };
                ideal_prod *= ideal;
                achieved_prod *= res.achieved[0];
                out[l].push(res);
            }
        }
        (out, clamped)
    }

    fn assert_matches_reference(sched: &StackSchedule, reference: &[Vec<SolveResult>], u: usize) {
        for (layer, refs) in sched.layers.iter().zip(reference) {
            let mut sq_sum = 0.0;
            for (idx, res) in refs.iter().enumerate() {
                let (row, col) = (idx / u, idx % u);
                assert_eq!(layer.packed().phase_codes(idx), res.codes, "weight {idx}");
                assert_eq!(layer.codes(row, col), layer.packed().row(idx));
                let a = layer.achieved[(row, col)];
                assert_eq!(a.re.to_bits(), res.achieved[0].re.to_bits());
                assert_eq!(a.im.to_bits(), res.achieved[0].im.to_bits());
                sq_sum += res.residual * res.residual;
            }
            let rms = (sq_sum / refs.len() as f64).sqrt();
            assert_eq!(layer.rms_residual.to_bits(), rms.to_bits());
        }
    }

    #[test]
    fn lane_kernel_stack_chunks_match_per_weight_solves_bitwise() {
        // 5 × 29 weights: one full chunk and a partial one. The Eqn-8
        // offset pushes some compensated layer-1 targets past the clamp.
        let geom = geometry(2, 48);
        let solver = StackSolver::new(&geom, 1.0);
        let (r, u) = (5, 29);
        let factors = random_factors(2, r, u, 6);
        let env = C64::new(60.0, -40.0);
        let cold = solver.solve(&factors, env);
        let (reference, clamped) = per_weight_reference(&solver, &factors, env, None);
        assert!(clamped > 0, "no layer-1 target hit the clamp");
        assert_matches_reference(&cold, &reference, u);

        // Warm from the cold programme after a receiver move.
        let moved = geom.relinked(
            Point3::new(-0.5, 0.87, 1.1),
            Point3::new(1.3, 2.7, 1.0),
            geom.freq_hz,
        );
        let solver = StackSolver::new(&moved, 1.0);
        let mut scratch = SolverScratch::new();
        let warm = solver.resolve_warm(&factors, env, &cold.layers, &mut scratch);
        let (reference, _) = per_weight_reference(&solver, &factors, env, Some(&cold));
        assert_matches_reference(&warm, &reference, u);
    }
}
