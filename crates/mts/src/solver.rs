//! Mapping desired complex weights onto discrete atom states.
//!
//! After training, the network's weights `H_des` are continuous complex
//! numbers; the hardware offers only `Σ_m e^{j(φ_m^p + φ_m)}` with
//! `φ_m` from a 2-bit alphabet. The paper solves
//!
//! ```text
//! Φ = argmin_φ |H_mts(Φ) − H_des|            (Eqn 7)
//! Φ = argmin_φ |H_mts(Φ) − (H_des − H_e)|    (Eqn 8, multipath-aware)
//! ```
//!
//! We use per-atom coordinate descent: hold all atoms but one fixed, try
//! each of its states, keep the best, and sweep until convergence. The
//! objective is convex in no useful sense, but with hundreds of atoms each
//! contributing a bounded unit phasor, descent starting from the
//! phase-aligned initialization converges to within quantization noise in
//! a handful of sweeps.
//!
//! Single-target weights are solved in batches by the **lane kernel**
//! ([`WeightSolver::solve_batch`], [`WeightSolver::solve_batch_warm`]):
//! eight weights that share one [`StateTable`] descend in lockstep, one
//! per lane, each atom's contribution row broadcast to every lane. Within
//! one weight the descent is a serial chain (atom `m`'s choice updates the
//! sum atom `m + 1` reads); across weights it is independent, so the lanes
//! hide the chain's latency and fill SIMD registers. A lane that finishes
//! is refilled with the batch's next weight at the sweep boundary, and the
//! one it retires is written straight into the caller's [`BatchOutput`]:
//! its state indices into a packed row (the
//! [`PackedCodes`](crate::atom::PackedCodes) layout), its sum and
//! residual into flat slices. Every lane runs the scalar descent's
//! operations in the scalar order, so codes, sums, residuals and sweep
//! counts are bitwise those of a one-weight-at-a-time solve;
//! [`WeightSolver::solve_with`] and [`WeightSolver::solve_warm`] are
//! one-weight batches.
//!
//! The same machinery extends to the **joint multi-target** problem of the
//! parallelism schemes (Eqns 9–10): one shared configuration must
//! approximate `K` different weights, one per receive antenna (or
//! per-subcarrier Fourier bin). The per-atom step then minimizes the sum
//! of squared errors across all targets; that descent runs one
//! configuration at a time.

use crate::atom::{nearest_state, nearest_state_within_turn, PhaseCode};
use metaai_math::C64;
use metaai_telemetry::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Bucket bounds for the Eqn-4 residual histogram `|H_mts − H_des|`
/// (normalized units). A healthy 256-atom solve lands well below 1.5, so
/// mass drifting into the upper buckets is a direct signal the discrete
/// realization is degrading.
const RESIDUAL_BOUNDS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

/// Weights the lane kernel descends in lockstep. Eight `f64` lanes are
/// two AVX2 registers per quantity: two independent dependency chains per
/// atom step. At AVX-512 they are one register; sixteen lanes (two) measured
/// no faster there.
const LANES: usize = 8;

/// Solver-stage instruments, registered once with the global registry.
struct SolverMetrics {
    solves: Counter,
    sweeps: Counter,
    table_builds: Counter,
    residual: Histogram,
    /// Vector width, in bits, of the lane kernel's last solve: 512
    /// (AVX-512F), 256 (AVX2) or 128 (the portable build's SSE2 baseline).
    lane_bits: Gauge,
}

fn metrics() -> &'static SolverMetrics {
    static METRICS: OnceLock<SolverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        SolverMetrics {
            solves: r.counter("metaai.mts.solver.solves"),
            sweeps: r.counter("metaai.mts.solver.sweeps"),
            table_builds: r.counter("metaai.mts.solver.table_builds"),
            residual: r.histogram("metaai.mts.solver.residual", &RESIDUAL_BOUNDS),
            lane_bits: r.gauge("metaai.mts.solver.lane_bits"),
        }
    })
}

/// Registers the solver's instruments with the global telemetry registry,
/// so snapshots list them (zero-valued) even before the first solve.
pub fn register_metrics() {
    let _ = metrics();
}

/// Records finished solves: one solve and one residual observation per
/// entry of `residuals`, and their `sweeps` in total.
fn record(sweeps: usize, residuals: &[f64]) {
    if metaai_telemetry::enabled() {
        let m = metrics();
        m.solves.add(residuals.len() as u64);
        m.sweeps.add(sweeps as u64);
        for &r in residuals {
            m.residual.observe(r);
        }
    }
}

/// Precomputed per-atom state contributions for one [`WeightSolver`]:
/// for target `t`, entry `atom · S + s` of its planes holds
/// `phasors[t][atom] · e^{jφ_s}` for the `S = 2^bits` states `s`, split
/// into re/im planes so an atom's row of `S` contributions is one
/// contiguous run per component.
///
/// The coordinate-descent inner loop evaluates `phasors[t][atom] ·
/// state_phasor` for every atom × state × sweep; tabulating the products
/// once makes that loop add/compare only. Because `PhaseCode::phase()` is
/// a pure function of `(index, bits)` and each product is formed from the
/// exact same operands, table lookups are bit-identical to the on-the-fly
/// multiplies they replace.
///
/// The table also keeps the first target's per-atom path angles
/// `phasors[0][atom].arg()`, which the cold solve's phase-aligned
/// initialization subtracts from the target angle: one `atan2` per atom
/// per solver instead of per atom per solve, and the same `f64` either way.
///
/// The table depends only on the solver (not on targets), so callers
/// solving many targets against one geometry — [`WeightSolver`] users like
/// the weight mapper — build it once and share it read-only across
/// workers.
#[derive(Clone, Debug)]
pub struct StateTable {
    planes: Vec<Plane>,
    init_args: Vec<f64>,
    n_states: usize,
}

/// One target's contributions, split re/im: `re[atom · S + s]`.
#[derive(Clone, Debug)]
struct Plane {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateTable {
    /// Target `t`'s contribution from `atom` in state `s`.
    #[inline]
    fn contrib(&self, t: usize, atom: usize, s: usize) -> C64 {
        let i = atom * self.n_states + s;
        C64::new(self.planes[t].re[i], self.planes[t].im[i])
    }
}

/// Reusable per-worker workspace for the solver: the buffers that would
/// otherwise be reallocated per call.
#[derive(Clone, Debug, Default)]
pub struct SolverScratch {
    /// Joint descent: the configuration and one running sum per target.
    codes: Vec<PhaseCode>,
    sums: Vec<C64>,
    /// Lane kernel: every batch weight's initial state indices, in groups
    /// of `LANES` weights laid out as the lanes are (weight
    /// `g · LANES + lane` at `init[(g · M + atom) · LANES + lane]`), and
    /// initial sums.
    init: Vec<u64>,
    init_sums: Vec<C64>,
    /// Lane kernel: the state indices of the weights in flight,
    /// atom-major (`lanes[atom · LANES + lane]`), as 64-bit words so the
    /// kernel compares and blends them in the lanes of its `f64` vectors.
    lanes: Vec<u64>,
}

impl SolverScratch {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        SolverScratch::default()
    }
}

/// Where a lane-kernel batch of `n` weights on `M` atoms writes its
/// results, each in weight order: weight `j`'s state indices at
/// `codes[j·M .. (j+1)·M]` (a [`PackedCodes`](crate::atom::PackedCodes)
/// layout), its achieved normalized sum at `achieved[j]` and its residual
/// `|achieved − target|` at `residual[j]`.
#[derive(Debug)]
pub struct BatchOutput<'a> {
    /// `n · M` state indices.
    pub codes: &'a mut [u8],
    /// `n` achieved normalized sums.
    pub achieved: &'a mut [C64],
    /// `n` residuals.
    pub residual: &'a mut [f64],
}

/// Result of solving for one configuration.
#[derive(Clone, Debug, Default)]
pub struct SolveResult {
    /// The atom states found.
    pub codes: Vec<PhaseCode>,
    /// The achieved normalized sum(s), one per target.
    pub achieved: Vec<C64>,
    /// Final residual `√(Σ_k |achieved_k − target_k|²)`.
    pub residual: f64,
    /// Coordinate-descent sweeps used.
    pub sweeps: usize,
}

/// Coordinate-descent solver over a fixed set of per-atom path phasors.
#[derive(Clone, Debug)]
pub struct WeightSolver {
    /// Per-atom, per-target path phasors: `phasors[k][m] = e^{jφ_{m,k}^p}`.
    pub phasors: Vec<Vec<C64>>,
    /// Bit depth of the atoms (2 for the prototypes).
    pub bits: u8,
    /// Maximum descent sweeps.
    pub max_sweeps: usize,
}

impl WeightSolver {
    /// Single-target solver from one set of path phasors.
    pub fn single(path_phasors: Vec<C64>, bits: u8) -> Self {
        WeightSolver {
            phasors: vec![path_phasors],
            bits,
            max_sweeps: 6,
        }
    }

    /// Joint solver over `K` targets (antenna or subcarrier parallelism).
    pub fn joint(per_target_phasors: Vec<Vec<C64>>, bits: u8) -> Self {
        assert!(!per_target_phasors.is_empty(), "need at least one target");
        let m = per_target_phasors[0].len();
        assert!(
            per_target_phasors.iter().all(|p| p.len() == m),
            "all targets must cover the same atoms"
        );
        WeightSolver {
            phasors: per_target_phasors,
            bits,
            max_sweeps: 6,
        }
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.phasors[0].len()
    }

    /// Number of simultaneous targets.
    pub fn num_targets(&self) -> usize {
        self.phasors.len()
    }

    /// The largest magnitude reachable *in every direction* of the complex
    /// plane for target `k` — the safe radius for weight scaling.
    ///
    /// For direction ψ the best reachable projection is
    /// `Σ_m max_s cos(θ_{m} + φ_s − ψ)`; the safe radius is the minimum
    /// over ψ (evaluated on a grid — the function is smooth).
    pub fn reachable_radius(&self, k: usize) -> f64 {
        let states: Vec<f64> = (0..(1usize << self.bits))
            .map(|i| PhaseCode::new(i as u8, self.bits).phase())
            .collect();
        // `arg()` is independent of ψ — hoist it out of the grid loop
        // (the grid re-evaluated atan2 64× per atom before).
        let args: Vec<f64> = self.phasors[k].iter().map(|u| u.arg()).collect();
        let mut min_r = f64::INFINITY;
        let grid = 64;
        for g in 0..grid {
            let psi = std::f64::consts::TAU * g as f64 / grid as f64;
            let r: f64 = args
                .iter()
                .map(|&a| {
                    states
                        .iter()
                        .map(|&s| (a + s - psi).cos())
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .sum();
            min_r = min_r.min(r);
        }
        min_r
    }

    /// Builds the per-atom state-contribution table for this solver. Build
    /// it once and pass it to every solve against this geometry.
    pub fn state_table(&self) -> StateTable {
        let n_states = 1usize << self.bits;
        let state_phasors: Vec<C64> = (0..n_states)
            .map(|i| C64::cis(PhaseCode::new(i as u8, self.bits).phase()))
            .collect();
        let planes = self
            .phasors
            .iter()
            .map(|row| {
                let c: Vec<C64> = row
                    .iter()
                    .flat_map(|&u| state_phasors.iter().map(move |&sp| u * sp))
                    .collect();
                Plane {
                    re: c.iter().map(|z| z.re).collect(),
                    im: c.iter().map(|z| z.im).collect(),
                }
            })
            .collect();
        let init_args = self.phasors[0].iter().map(|u| u.arg()).collect();
        if metaai_telemetry::enabled() {
            metrics().table_builds.inc();
        }
        StateTable {
            planes,
            init_args,
            n_states,
        }
    }

    /// Solves for one shared configuration approximating `targets[k]` on
    /// target `k`'s phasor set (all in normalized units, i.e. `H_des / α`),
    /// starting from the phase-aligned initialization. `table` must come
    /// from this solver's [`state_table`](Self::state_table).
    ///
    /// A single-target solver runs this as a one-weight
    /// [`solve_batch`](Self::solve_batch); callers with many targets
    /// should batch them.
    pub fn solve_with(
        &self,
        targets: &[C64],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        self.check_inputs(targets, table);
        if self.num_targets() == 1 {
            return self.one_weight(targets, Start::PhaseAligned, table, scratch);
        }
        let target_arg = targets[0].arg();
        scratch.codes.clear();
        scratch.codes.extend(
            table
                .init_args
                .iter()
                .map(|&a| PhaseCode::quantize(target_arg - a, self.bits)),
        );
        self.descend_joint(targets, table, scratch)
    }

    /// [`solve_with`](Self::solve_with), but warm-started from `initial`
    /// instead of the phase-aligned initialization — the online-adaptation
    /// path: when the channel drifts a little, the previous round's codes
    /// are already near the new optimum and descent converges in a sweep
    /// or two instead of re-deriving the configuration from scratch.
    ///
    /// Descent after the initialization is the same kernel `solve_with`
    /// runs, so a warm solve seeded with the codes the phase-aligned init
    /// would have produced is bitwise identical to the cold solve.
    pub fn solve_warm(
        &self,
        targets: &[C64],
        initial: &[PhaseCode],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        self.check_inputs(targets, table);
        self.check_warm(initial);
        if self.num_targets() == 1 {
            let indices: Vec<u8> = initial.iter().map(|c| c.index).collect();
            return self.one_weight(targets, Start::Warm(&indices), table, scratch);
        }
        scratch.codes.clear();
        scratch.codes.extend_from_slice(initial);
        self.descend_joint(targets, table, scratch)
    }

    /// Solves every target of a single-target solver independently, each
    /// from its phase-aligned initialization, into `out`: weight `j`'s
    /// codes, achieved sum and residual are exactly what a one-target
    /// [`solve_with`](Self::solve_with) of `targets[j]` returns, and the
    /// solver telemetry counts one solve per target. Returns the descent
    /// sweeps of the whole batch.
    pub fn solve_batch(
        &self,
        targets: &[C64],
        table: &StateTable,
        scratch: &mut SolverScratch,
        out: BatchOutput<'_>,
    ) -> usize {
        self.descend_lanes(targets, Start::PhaseAligned, table, scratch, out)
    }

    /// [`solve_batch`](Self::solve_batch), with target `j` warm-started
    /// from the state indices `initial[j·M .. (j+1)·M]` (the layout `out`
    /// is written in): weight `j` is exactly a one-target
    /// [`solve_warm`](Self::solve_warm) of `targets[j]` from those codes.
    pub fn solve_batch_warm(
        &self,
        targets: &[C64],
        initial: &[u8],
        table: &StateTable,
        scratch: &mut SolverScratch,
        out: BatchOutput<'_>,
    ) -> usize {
        assert_eq!(
            initial.len(),
            targets.len() * self.num_atoms(),
            "one warm start per target, covering every atom"
        );
        // State counts are powers of two: one OR bounds every index.
        let seen = initial.iter().fold(0u8, |acc, &i| acc | i);
        assert!(
            usize::from(seen) < table.n_states,
            "warm-start codes use a different bit depth"
        );
        self.descend_lanes(targets, Start::Warm(initial), table, scratch, out)
    }

    /// A single-target solve as a one-weight batch.
    fn one_weight(
        &self,
        targets: &[C64],
        start: Start<'_>,
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        let mut codes = vec![0; self.num_atoms()];
        let mut achieved = vec![C64::ZERO];
        let mut residual = [0.0];
        let out = BatchOutput {
            codes: &mut codes,
            achieved: &mut achieved,
            residual: &mut residual,
        };
        let sweeps = self.descend_lanes(targets, start, table, scratch, out);
        SolveResult {
            codes: codes
                .into_iter()
                .map(|index| PhaseCode {
                    index,
                    bits: self.bits,
                })
                .collect(),
            achieved,
            residual: residual[0],
            sweeps,
        }
    }

    fn check_inputs(&self, targets: &[C64], table: &StateTable) {
        assert_eq!(
            targets.len(),
            self.num_targets(),
            "one target per phasor set"
        );
        self.check_table(table);
    }

    fn check_batch(&self, table: &StateTable) {
        assert_eq!(
            self.num_targets(),
            1,
            "batches solve single-target weights; joint solves use solve_with"
        );
        self.check_table(table);
    }

    fn check_table(&self, table: &StateTable) {
        assert!(
            table.planes.len() == self.num_targets()
                && table.init_args.len() == self.num_atoms()
                && table.n_states == 1 << self.bits,
            "state table built for a different solver"
        );
    }

    fn check_warm(&self, initial: &[PhaseCode]) {
        assert_eq!(
            initial.len(),
            self.num_atoms(),
            "warm start must cover every atom"
        );
        assert!(
            initial.iter().all(|c| c.bits == self.bits),
            "warm-start codes use a different bit depth"
        );
    }

    /// The lane kernel over a batch, instantiated per state count.
    fn descend_lanes(
        &self,
        targets: &[C64],
        start: Start<'_>,
        table: &StateTable,
        scratch: &mut SolverScratch,
        mut out: BatchOutput<'_>,
    ) -> usize {
        self.check_batch(table);
        let n = targets.len();
        assert!(
            out.codes.len() == n * self.num_atoms()
                && out.achieved.len() == n
                && out.residual.len() == n,
            "batch output must hold every weight's codes, sum and residual"
        );
        let sweeps = match table.n_states {
            2 => run_lanes::<2>(self, targets, start, table, scratch, &mut out),
            4 => run_lanes::<4>(self, targets, start, table, scratch, &mut out),
            8 => run_lanes::<8>(self, targets, start, table, scratch, &mut out),
            n => unreachable!("{n} states: bit depth must be 1..=3"),
        };
        record(sweeps, out.residual);
        sweeps
    }

    /// The joint (`K ≥ 2`) coordinate descent: `scratch.codes` must already
    /// hold one code per atom (the initialization); everything after that
    /// point is identical between cold and warm solves. The summation
    /// order `(sums[t] + contrib) − targets[t]` is the pre-table kernel's
    /// — do not "simplify" it to `(sums − targets) + contrib`,
    /// floating-point addition is not associative.
    fn descend_joint(
        &self,
        targets: &[C64],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        let k = self.num_targets();
        let codes = &mut scratch.codes;

        // Running sums per target (left fold from zero, matching `Sum`).
        scratch.sums.clear();
        scratch.sums.extend((0..k).map(|t| {
            codes
                .iter()
                .enumerate()
                .map(|(atom, c)| table.contrib(t, atom, c.index as usize))
                .fold(C64::ZERO, |a, b| a + b)
        }));
        let sums = &mut scratch.sums;

        let mut sweeps = 0;
        for sweep in 0..self.max_sweeps {
            sweeps = sweep + 1;
            let mut changed = false;
            for (atom, code) in codes.iter_mut().enumerate() {
                // Remove this atom's contribution from every sum.
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum -= table.contrib(t, atom, code.index as usize);
                }
                // Try every state; keep the one minimizing total error.
                let mut best_state = code.index as usize;
                let mut best_err = f64::INFINITY;
                for s in 0..table.n_states {
                    let err: f64 = (0..k)
                        .map(|t| {
                            let trial = sums[t] + table.contrib(t, atom, s);
                            (trial - targets[t]).norm_sq()
                        })
                        .sum();
                    if err < best_err {
                        best_err = err;
                        best_state = s;
                    }
                }
                if best_state != code.index as usize {
                    changed = true;
                    *code = PhaseCode::new(best_state as u8, self.bits);
                }
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum += table.contrib(t, atom, best_state);
                }
            }
            if !changed {
                break;
            }
        }

        let residual = sums
            .iter()
            .zip(targets)
            .map(|(&s, &t)| (s - t).norm_sq())
            .sum::<f64>()
            .sqrt();
        record(sweeps, &[residual]);
        SolveResult {
            codes: codes.clone(),
            achieved: sums.clone(),
            residual,
            sweeps,
        }
    }
}

/// How a batch's descents start.
#[derive(Clone, Copy)]
enum Start<'a> {
    /// The phase-aligned initialization against each target.
    PhaseAligned,
    /// One configuration's state indices per target, target-major.
    Warm(&'a [u8]),
}

/// Descent state of the weights in flight, one lane each: the running
/// sum, the target, and whether the current sweep changed a code (0 or 1).
#[derive(Clone, Copy, Debug, Default)]
struct Lanes {
    sum_re: [f64; LANES],
    sum_im: [f64; LANES],
    t_re: [f64; LANES],
    t_im: [f64; LANES],
    changed: [u64; LANES],
}

/// [`lanes`] at the widest ISA this host runs.
///
/// As `metaai::engine` dispatches its row sweeps, the AVX-512 and AVX2
/// paths are the *same* safe body recompiled with 512- or 256-bit vectors
/// available (`#[target_feature(enable = …)]`, no intrinsics), picked by
/// a runtime check: every lane computes the identical `f64` sequence on
/// every path (Rust never contracts a multiply and an add into an FMA),
/// so ISA dispatch is bitwise-invisible. This kernel alone gets the
/// 512-bit tier: the engine sweeps, `CMat::matvec` and the training
/// cogradient measured slower with it (DESIGN.md, "ISA dispatch").
fn run_lanes<const S: usize>(
    solver: &WeightSolver,
    targets: &[C64],
    start: Start<'_>,
    table: &StateTable,
    scratch: &mut SolverScratch,
    out: &mut BatchOutput<'_>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            note_lane_bits(512);
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { run_lanes_avx512::<S>(solver, targets, start, table, scratch, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            note_lane_bits(256);
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { run_lanes_avx2::<S>(solver, targets, start, table, scratch, out) };
        }
    }
    note_lane_bits(128);
    lanes::<S>(solver, targets, start, table, scratch, out)
}

/// Sets the `lane_bits` gauge to the vector width a solve ran at.
fn note_lane_bits(bits: u32) {
    if metaai_telemetry::enabled() {
        metrics().lane_bits.set(f64::from(bits));
    }
}

/// [`lanes`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The CPU running it must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_lanes_avx512<const S: usize>(
    solver: &WeightSolver,
    targets: &[C64],
    start: Start<'_>,
    table: &StateTable,
    scratch: &mut SolverScratch,
    out: &mut BatchOutput<'_>,
) -> usize {
    lanes::<S>(solver, targets, start, table, scratch, out)
}

/// [`lanes`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_lanes_avx2<const S: usize>(
    solver: &WeightSolver,
    targets: &[C64],
    start: Start<'_>,
    table: &StateTable,
    scratch: &mut SolverScratch,
    out: &mut BatchOutput<'_>,
) -> usize {
    lanes::<S>(solver, targets, start, table, scratch, out)
}

/// Descends every weight of the batch, [`LANES`] at a time, with `S`
/// states per atom, into `out`; returns the sweeps of the whole batch.
///
/// Lanes enter and leave only at sweep boundaries, where every lane sits
/// at atom 0: a lane whose sweep changed nothing, or that reached
/// `max_sweeps`, retires — its codes, sum and residual written straight
/// into `out` — and loads the batch's next weight. A retired weight is
/// never swept again — `(s − c) + c` need not be `s` bitwise, and the
/// achieved sum is the running sum.
#[inline(always)]
fn lanes<const S: usize>(
    solver: &WeightSolver,
    targets: &[C64],
    start: Start<'_>,
    table: &StateTable,
    scratch: &mut SolverScratch,
    out: &mut BatchOutput<'_>,
) -> usize {
    let m = table.init_args.len();
    let plane = &table.planes[0];
    let SolverScratch {
        init,
        init_sums,
        lanes,
        ..
    } = scratch;

    // Initial state indices, a group of LANES weights at a time (the
    // spare lanes of a short last group are filled but never loaded).
    let group_len = m * LANES;
    let groups = targets.len().div_ceil(LANES);
    init.clear();
    init.resize(groups * group_len, 0);
    match start {
        Start::PhaseAligned => {
            for g in 0..groups {
                let arg: [f64; LANES] = std::array::from_fn(|lane| {
                    targets.get(g * LANES + lane).map_or(0.0, |t| t.arg())
                });
                let group = &mut init[g * group_len..(g + 1) * group_len];
                phase_aligned::<S>(&arg, &table.init_args, group);
            }
        }
        Start::Warm(initial) => {
            for (j, codes) in initial.chunks_exact(m).enumerate() {
                let (g, lane) = (j / LANES, j % LANES);
                let group = &mut init[g * group_len..(g + 1) * group_len];
                for (slot, &c) in group.chunks_exact_mut(LANES).zip(codes) {
                    slot[lane] = u64::from(c);
                }
            }
        }
    }

    // Initial sums: a left fold from zero in atom order, as `Sum` folds,
    // a group at a time.
    init_sums.clear();
    for g in 0..groups {
        let group = &init[g * group_len..(g + 1) * group_len];
        let mut sum_re = [0.0; LANES];
        let mut sum_im = [0.0; LANES];
        let rows = plane.re.chunks_exact(S).zip(plane.im.chunks_exact(S));
        for (code, (row_re, row_im)) in group.chunks_exact(LANES).zip(rows) {
            let (c_re, c_im) = select::<S>(code, row_re, row_im);
            for lane in 0..LANES {
                sum_re[lane] += c_re[lane];
                sum_im[lane] += c_im[lane];
            }
        }
        let n = (targets.len() - g * LANES).min(LANES);
        init_sums.extend((0..n).map(|lane| C64::new(sum_re[lane], sum_im[lane])));
    }

    // Weight `j`'s codes, from one lane column of atom-major words, with
    // its achieved sum and residual.
    let mut retire = |j: usize, words: std::slice::ChunksExact<'_, u64>, lane, achieved: C64| {
        for (code, word) in out.codes[j * m..(j + 1) * m].iter_mut().zip(words) {
            *code = word[lane] as u8;
        }
        out.achieved[j] = achieved;
        out.residual[j] = (achieved - targets[j]).norm_sq().sqrt();
    };
    let mut sweeps = 0;
    lanes.clear();
    lanes.resize(m * LANES, 0);
    let mut st = Lanes::default();
    // The weight in each lane (IDLE once the batch runs dry) and the
    // sweeps it has taken.
    const IDLE: usize = usize::MAX;
    let mut in_flight = [IDLE; LANES];
    let mut swept = [0usize; LANES];
    let mut next = 0;
    loop {
        for lane in 0..LANES {
            let j = in_flight[lane];
            if j != IDLE {
                swept[lane] += 1;
                if st.changed[lane] != 0 && swept[lane] < solver.max_sweeps {
                    st.changed[lane] = 0;
                    continue;
                }
                let achieved = C64::new(st.sum_re[lane], st.sum_im[lane]);
                retire(j, lanes.chunks_exact(LANES), lane, achieved);
                sweeps += swept[lane];
                in_flight[lane] = IDLE;
            }
            while next < targets.len() {
                let j = next;
                next += 1;
                let (g, column) = (j / LANES, j % LANES);
                let group = init[g * group_len..(g + 1) * group_len].chunks_exact(LANES);
                if solver.max_sweeps == 0 {
                    retire(j, group, column, init_sums[j]);
                    continue;
                }
                for (slot, c) in lanes.chunks_exact_mut(LANES).zip(group) {
                    slot[lane] = c[column];
                }
                st.sum_re[lane] = init_sums[j].re;
                st.sum_im[lane] = init_sums[j].im;
                st.t_re[lane] = targets[j].re;
                st.t_im[lane] = targets[j].im;
                st.changed[lane] = 0;
                swept[lane] = 0;
                in_flight[lane] = j;
                break;
            }
        }
        if in_flight.iter().all(|&j| j == IDLE) {
            return sweeps;
        }
        sweep_lanes::<S>(plane, lanes, &mut st);
    }
}

/// The phase-aligned initialization of one group of weights with target
/// angles `arg`: each atom's state index nearest `arg[lane] − args[atom]`,
/// as `PhaseCode::quantize` picks it, into `out[atom · LANES + lane]`.
/// Differences of two angles in `[−π, π]` lie within one turn, where the
/// index needs no libm call; should any not, the group falls back to the
/// general form.
#[inline(always)]
fn phase_aligned<const S: usize>(arg: &[f64; LANES], args: &[f64], out: &mut [u64]) {
    let mut within_turn = true;
    for (codes, &a) in out.chunks_exact_mut(LANES).zip(args) {
        for lane in 0..LANES {
            let x = arg[lane] - a;
            within_turn &= x.abs() < std::f64::consts::TAU;
            codes[lane] = nearest_state_within_turn(x, S);
        }
    }
    if !within_turn {
        for (codes, &a) in out.chunks_exact_mut(LANES).zip(args) {
            for lane in 0..LANES {
                codes[lane] = u64::from(nearest_state(arg[lane] - a, S));
            }
        }
    }
}

/// Each lane's entry of one atom's row of `S` contributions, at the
/// lane's state index: bitwise blends over the broadcast row, so the
/// values are the table's own.
#[inline(always)]
fn select<const S: usize>(
    code: &[u64],
    row_re: &[f64],
    row_im: &[f64],
) -> ([f64; LANES], [f64; LANES]) {
    let mut re = [0.0; LANES];
    let mut im = [0.0; LANES];
    for s in 0..S {
        let (cr, ci) = (row_re[s], row_im[s]);
        for lane in 0..LANES {
            let hit = mask(code[lane] == s as u64);
            re[lane] = blend(hit, cr, re[lane]);
            im[lane] = blend(hit, ci, im[lane]);
        }
    }
    (re, im)
}

/// One descent sweep of every lane over every atom, with `S` states per
/// atom; `codes` holds the lanes' state indices atom-major.
///
/// Per lane this is the scalar descent, operation for operation: remove
/// the atom's current contribution (`sum −= c[old]`), score every state
/// as `((sum + c) − t).re² + ((sum + c) − t).im²` in state order with a
/// strict `<` (the first minimum wins; all-NaN keeps the old state), then
/// `sum += c[best]`. The selections are bitwise blends over the broadcast
/// row, so the selected values are the table entries themselves, and no
/// FMA contraction happens — rustc never fuses `mul` and `add` on its own.
#[inline(always)]
fn sweep_lanes<const S: usize>(plane: &Plane, codes: &mut [u64], st: &mut Lanes) {
    // Locals, not `st`'s fields, so the state stays in registers.
    let Lanes {
        mut sum_re,
        mut sum_im,
        t_re,
        t_im,
        mut changed,
    } = *st;
    let rows = plane.re.chunks_exact(S).zip(plane.im.chunks_exact(S));
    for ((row_re, row_im), code) in rows.zip(codes.chunks_exact_mut(LANES)) {
        let mut best = [0u64; LANES];
        best.copy_from_slice(code);
        let (cur_re, cur_im) = select::<S>(code, row_re, row_im);
        for lane in 0..LANES {
            sum_re[lane] -= cur_re[lane];
            sum_im[lane] -= cur_im[lane];
        }
        let mut best_err = [f64::INFINITY; LANES];
        let (mut add_re, mut add_im) = (cur_re, cur_im);
        for s in 0..S {
            let (cr, ci) = (row_re[s], row_im[s]);
            for lane in 0..LANES {
                let dr = (sum_re[lane] + cr) - t_re[lane];
                let di = (sum_im[lane] + ci) - t_im[lane];
                let err = dr * dr + di * di;
                let better = mask(err < best_err[lane]);
                best_err[lane] = blend(better, err, best_err[lane]);
                best[lane] = (s as u64 & better) | (best[lane] & !better);
                add_re[lane] = blend(better, cr, add_re[lane]);
                add_im[lane] = blend(better, ci, add_im[lane]);
            }
        }
        for lane in 0..LANES {
            changed[lane] |= u64::from(best[lane] != code[lane]);
            sum_re[lane] += add_re[lane];
            sum_im[lane] += add_im[lane];
        }
        code.copy_from_slice(&best);
    }
    *st = Lanes {
        sum_re,
        sum_im,
        t_re,
        t_im,
        changed,
    };
}

/// All ones when `b`, else zero: a lane mask for [`blend`].
#[inline(always)]
fn mask(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
}

/// `a` where `mask` is set, else `b` — a bitwise select, which the
/// vectorizer keeps in registers where an `if` may become a branch.
#[inline(always)]
fn blend(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::rng::SimRng;

    fn random_phasors(m: usize, seed: u64) -> Vec<C64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..m).map(|_| rng.unit_phasor()).collect()
    }

    /// One cold single-target solve against a freshly built table.
    fn solve_one(solver: &WeightSolver, target: C64) -> SolveResult {
        solver.solve_with(&[target], &solver.state_table(), &mut SolverScratch::new())
    }

    #[test]
    fn single_target_residual_is_small_for_m256() {
        let solver = WeightSolver::single(random_phasors(256, 1), 2);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..20 {
            let r = 0.6 * solver.reachable_radius(0) * rng.uniform();
            let target = C64::from_polar(r, rng.phase());
            let res = solve_one(&solver, target);
            assert!(
                res.residual < 1.5,
                "residual {} for target {} (radius {})",
                res.residual,
                target,
                r
            );
        }
    }

    #[test]
    fn residual_shrinks_with_atom_count() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut residuals = Vec::new();
        for &m in &[16usize, 64, 256] {
            let solver = WeightSolver::single(random_phasors(m, 10 + m as u64), 2);
            let mut total = 0.0;
            for _ in 0..10 {
                // Same *relative* target position across sizes.
                let target = C64::from_polar(0.4 * m as f64, rng.phase());
                total += solve_one(&solver, target).residual / m as f64;
            }
            residuals.push(total / 10.0);
        }
        assert!(
            residuals[0] > residuals[1] && residuals[1] > residuals[2],
            "relative residual must shrink with M: {residuals:?}"
        );
    }

    #[test]
    fn reachable_radius_scales_with_m() {
        for &m in &[16usize, 64, 256] {
            let solver = WeightSolver::single(random_phasors(m, m as u64), 2);
            let r = solver.reachable_radius(0);
            // With 4 states, each atom contributes at least cos(π/4) ≈ 0.707
            // toward any direction; typically ≈ 0.9.
            assert!(r > 0.7 * m as f64 && r <= m as f64, "m={m} radius={r}");
        }
    }

    #[test]
    fn zero_target_is_reachable() {
        let solver = WeightSolver::single(random_phasors(256, 5), 2);
        let res = solve_one(&solver, C64::ZERO);
        assert!(res.residual < 1.0, "residual {}", res.residual);
    }

    #[test]
    fn joint_solver_trades_accuracy_across_targets() {
        // One configuration, K increasingly many independent targets: the
        // per-target residual must grow with K (the coupling the paper's
        // Fig 31 observes).
        let m = 256;
        let mut rng = SimRng::seed_from_u64(7);
        let mut per_target_residuals = Vec::new();
        for &k in &[1usize, 4, 8] {
            let phasors: Vec<Vec<C64>> =
                (0..k).map(|t| random_phasors(m, 100 + t as u64)).collect();
            let solver = WeightSolver::joint(phasors, 2);
            let targets: Vec<C64> = (0..k)
                .map(|_| C64::from_polar(0.3 * m as f64, rng.phase()))
                .collect();
            let res = solver.solve_with(&targets, &solver.state_table(), &mut SolverScratch::new());
            per_target_residuals.push(res.residual / (k as f64).sqrt());
        }
        assert!(
            per_target_residuals[0] < per_target_residuals[1],
            "residuals {per_target_residuals:?}"
        );
        assert!(
            per_target_residuals[1] < per_target_residuals[2] * 1.5,
            "residuals {per_target_residuals:?}"
        );
    }

    #[test]
    fn one_bit_atoms_are_worse_than_two_bit() {
        let phasors = random_phasors(128, 9);
        let s1 = WeightSolver::single(phasors.clone(), 1);
        let s2 = WeightSolver::single(phasors, 2);
        let mut rng = SimRng::seed_from_u64(11);
        let mut e1 = 0.0;
        let mut e2 = 0.0;
        for _ in 0..10 {
            let t = C64::from_polar(30.0, rng.phase());
            e1 += solve_one(&s1, t).residual;
            e2 += solve_one(&s2, t).residual;
        }
        assert!(e2 < e1, "2-bit {e2} must beat 1-bit {e1}");
    }

    /// The pre-table coordinate-descent kernel, kept verbatim as the
    /// reference the optimised `solve` must match bit for bit.
    fn reference_solve(solver: &WeightSolver, targets: &[C64]) -> SolveResult {
        let codes: Vec<PhaseCode> = solver.phasors[0]
            .iter()
            .map(|u| PhaseCode::quantize(targets[0].arg() - u.arg(), solver.bits))
            .collect();
        reference_descend(solver, targets, codes)
    }

    /// The transplant's descent from given initial codes: the warm-start
    /// reference, and the second half of [`reference_solve`].
    fn reference_descend(
        solver: &WeightSolver,
        targets: &[C64],
        mut codes: Vec<PhaseCode>,
    ) -> SolveResult {
        assert_eq!(targets.len(), solver.num_targets());
        let k = solver.num_targets();
        let n_states = 1usize << solver.bits;
        let state_phasors: Vec<C64> = (0..n_states)
            .map(|i| C64::cis(PhaseCode::new(i as u8, solver.bits).phase()))
            .collect();
        let mut sums: Vec<C64> = (0..k)
            .map(|t| {
                solver.phasors[t]
                    .iter()
                    .zip(&codes)
                    .map(|(&u, c)| u * C64::cis(c.phase()))
                    .sum()
            })
            .collect();
        let mut sweeps = 0;
        for sweep in 0..solver.max_sweeps {
            sweeps = sweep + 1;
            let mut changed = false;
            for (atom, code) in codes.iter_mut().enumerate() {
                let current = C64::cis(code.phase());
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum -= solver.phasors[t][atom] * current;
                }
                let mut best_state = code.index as usize;
                let mut best_err = f64::INFINITY;
                for (s, &sp) in state_phasors.iter().enumerate() {
                    let err: f64 = (0..k)
                        .map(|t| {
                            let trial = sums[t] + solver.phasors[t][atom] * sp;
                            (trial - targets[t]).norm_sq()
                        })
                        .sum();
                    if err < best_err {
                        best_err = err;
                        best_state = s;
                    }
                }
                if best_state != code.index as usize {
                    changed = true;
                    *code = PhaseCode::new(best_state as u8, solver.bits);
                }
                let chosen = state_phasors[best_state];
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum += solver.phasors[t][atom] * chosen;
                }
            }
            if !changed {
                break;
            }
        }
        let residual = sums
            .iter()
            .zip(targets)
            .map(|(&s, &t)| (s - t).norm_sq())
            .sum::<f64>()
            .sqrt();
        SolveResult {
            codes,
            achieved: sums,
            residual,
            sweeps,
        }
    }

    #[test]
    fn table_solve_matches_reference_kernel_bitwise() {
        let mut rng = SimRng::seed_from_u64(23);
        for &(m, bits) in &[(64usize, 1u8), (128, 2), (96, 3)] {
            let solver = WeightSolver::single(random_phasors(m, 1000 + m as u64), bits);
            let table = solver.state_table();
            let mut scratch = SolverScratch::new();
            for _ in 0..10 {
                let target = C64::from_polar(0.7 * m as f64 * rng.uniform(), rng.phase());
                let fast = solver.solve_with(&[target], &table, &mut scratch);
                let refr = reference_solve(&solver, &[target]);
                assert_eq!(fast.codes, refr.codes);
                assert_eq!(fast.sweeps, refr.sweeps);
                assert_eq!(fast.residual.to_bits(), refr.residual.to_bits());
                for (a, b) in fast.achieved.iter().zip(&refr.achieved) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn joint_table_solve_matches_reference_kernel_bitwise() {
        let m = 64;
        let phasors: Vec<Vec<C64>> = (0..4).map(|t| random_phasors(m, 300 + t as u64)).collect();
        let solver = WeightSolver::joint(phasors, 2);
        let table = solver.state_table();
        let mut scratch = SolverScratch::new();
        let mut rng = SimRng::seed_from_u64(29);
        for _ in 0..5 {
            let targets: Vec<C64> = (0..4)
                .map(|_| C64::from_polar(0.3 * m as f64, rng.phase()))
                .collect();
            let fast = solver.solve_with(&targets, &table, &mut scratch);
            let refr = reference_solve(&solver, &targets);
            assert_eq!(fast.codes, refr.codes);
            assert_eq!(fast.residual.to_bits(), refr.residual.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let solver = WeightSolver::single(random_phasors(64, 31), 2);
        let table = solver.state_table();
        let mut scratch = SolverScratch::new();
        let t1 = C64::new(10.0, -5.0);
        let t2 = C64::new(-3.0, 12.0);
        let first = solver.solve_with(&[t1], &table, &mut scratch);
        let _ = solver.solve_with(&[t2], &table, &mut scratch);
        let again = solver.solve_with(&[t1], &table, &mut scratch);
        assert_eq!(first.codes, again.codes);
        assert_eq!(first.residual.to_bits(), again.residual.to_bits());
    }

    #[test]
    fn solve_is_deterministic() {
        let solver = WeightSolver::single(random_phasors(64, 13), 2);
        let t = C64::new(10.0, -5.0);
        let a = solve_one(&solver, t);
        let b = solve_one(&solver, t);
        assert_eq!(a.codes, b.codes);
        assert_eq!(a.residual, b.residual);
    }

    #[test]
    fn warm_solve_with_phase_aligned_codes_matches_cold_solve_bitwise() {
        // Seeding `solve_warm` with exactly the codes the phase-aligned
        // initialization would produce must reproduce `solve_with` bit for
        // bit — the two entry points share one descent kernel.
        let mut rng = SimRng::seed_from_u64(41);
        for &(m, bits) in &[(64usize, 2u8), (96, 3)] {
            let solver = WeightSolver::single(random_phasors(m, 2000 + m as u64), bits);
            let table = solver.state_table();
            let mut scratch = SolverScratch::new();
            for _ in 0..5 {
                let target = C64::from_polar(0.5 * m as f64 * rng.uniform(), rng.phase());
                let aligned: Vec<PhaseCode> = solver.phasors[0]
                    .iter()
                    .map(|u| PhaseCode::quantize(target.arg() - u.arg(), bits))
                    .collect();
                let cold = solver.solve_with(&[target], &table, &mut scratch);
                let warm = solver.solve_warm(&[target], &aligned, &table, &mut scratch);
                assert_eq!(cold.codes, warm.codes);
                assert_eq!(cold.sweeps, warm.sweeps);
                assert_eq!(cold.residual.to_bits(), warm.residual.to_bits());
            }
        }
    }

    #[test]
    fn warm_solve_from_a_converged_solution_terminates_in_one_sweep() {
        let solver = WeightSolver::single(random_phasors(256, 43), 2);
        let table = solver.state_table();
        let mut scratch = SolverScratch::new();
        let target = C64::new(60.0, -25.0);
        let cold = solver.solve_with(&[target], &table, &mut scratch);
        assert!(
            cold.sweeps < solver.max_sweeps,
            "pick a target where descent converges ({} sweeps)",
            cold.sweeps
        );
        let warm = solver.solve_warm(&[target], &cold.codes, &table, &mut scratch);
        assert_eq!(warm.sweeps, 1, "a converged start changes nothing");
        assert_eq!(warm.codes, cold.codes);
        // The warm path recomputes the sums with a fresh fold where the
        // cold path maintained them incrementally through descent, so the
        // residual matches only to rounding, not bit for bit.
        assert!((warm.residual - cold.residual).abs() < 1e-9);
    }

    #[test]
    fn warm_solve_tracks_a_nudged_target_cheaply() {
        // The adaptation use case: solve once, nudge the target slightly,
        // and the warm re-solve must stay accurate while sweeping no more
        // than the cold re-solve would.
        let solver = WeightSolver::single(random_phasors(256, 47), 2);
        let table = solver.state_table();
        let mut scratch = SolverScratch::new();
        let before = C64::new(55.0, 30.0);
        let after = before + C64::new(1.5, -2.0);
        let base = solver.solve_with(&[before], &table, &mut scratch);
        let cold = solver.solve_with(&[after], &table, &mut scratch);
        let warm = solver.solve_warm(&[after], &base.codes, &table, &mut scratch);
        assert!(
            warm.sweeps < solver.max_sweeps,
            "warm descent converged ({} sweeps)",
            warm.sweeps
        );
        assert!(
            warm.residual < cold.residual + 1.0,
            "warm residual {} must stay in the cold solve's ballpark {}",
            warm.residual,
            cold.residual
        );
    }

    #[test]
    fn achieved_matches_recomputed_sum() {
        let phasors = random_phasors(64, 17);
        let solver = WeightSolver::single(phasors.clone(), 2);
        let res = solve_one(&solver, C64::new(8.0, 3.0));
        let recomputed: C64 = phasors
            .iter()
            .zip(&res.codes)
            .map(|(&u, c)| u * C64::cis(c.phase()))
            .sum();
        assert!((recomputed - res.achieved[0]).abs() < 1e-9);
    }

    /// Codes, achieved sums and residuals bitwise; sweeps are compared
    /// per batch, where the kernel reports them.
    fn assert_same(fast: &SolveResult, refr: &SolveResult) {
        assert_eq!(fast.codes, refr.codes);
        assert_eq!(fast.residual.to_bits(), refr.residual.to_bits());
        assert_eq!(fast.achieved.len(), refr.achieved.len());
        for (a, b) in fast.achieved.iter().zip(&refr.achieved) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// Runs `kernel` on an `n`-weight batch into fresh output buffers and
    /// unpacks them into one result per weight (its `sweeps` left 0);
    /// returns those and the batch's sweeps.
    fn solve_into_batch(
        solver: &WeightSolver,
        n: usize,
        kernel: impl FnOnce(BatchOutput<'_>) -> usize,
    ) -> (Vec<SolveResult>, usize) {
        let m = solver.num_atoms();
        let mut codes = vec![0; n * m];
        let mut achieved = vec![C64::ZERO; n];
        let mut residual = vec![0.0; n];
        let sweeps = kernel(BatchOutput {
            codes: &mut codes,
            achieved: &mut achieved,
            residual: &mut residual,
        });
        let results = (0..n)
            .map(|j| SolveResult {
                codes: codes[j * m..(j + 1) * m]
                    .iter()
                    .map(|&index| PhaseCode::new(index, solver.bits))
                    .collect(),
                achieved: vec![achieved[j]],
                residual: residual[j],
                sweeps: 0,
            })
            .collect();
        (results, sweeps)
    }

    /// Every weight's codes, target-major, as a warm start.
    fn packed(starts: &[Vec<PhaseCode>]) -> Vec<u8> {
        starts.iter().flatten().map(|c| c.index).collect()
    }

    /// Batch sizes around the lane count: none, one lane, a partial
    /// group, one refill, and four refills plus a straggler.
    const BATCH_SIZES: [usize; 5] = [0, 1, 7, 9, 33];

    /// Targets spread from zero to past the reachable radius, so lanes
    /// retire after different sweep counts.
    fn batch_targets(n: usize, m: usize, rng: &mut SimRng) -> Vec<C64> {
        (0..n)
            .map(|j| match j % 5 {
                0 => C64::ZERO,
                4 => C64::from_polar(1.2 * m as f64, rng.phase()),
                _ => C64::from_polar(0.8 * m as f64 * rng.uniform(), rng.phase()),
            })
            .collect()
    }

    #[test]
    fn lane_kernel_cold_batches_match_the_reference_bitwise() {
        let mut rng = SimRng::seed_from_u64(51);
        for bits in 1u8..=3 {
            let mut solver = WeightSolver::single(random_phasors(40, 60 + bits as u64), bits);
            let table = solver.state_table();
            let mut scratch = SolverScratch::new();
            for max_sweeps in [0, 1, 2, 6] {
                solver.max_sweeps = max_sweeps;
                for n in BATCH_SIZES {
                    let targets = batch_targets(n, 40, &mut rng);
                    let (batch, sweeps) = solve_into_batch(&solver, n, |out| {
                        solver.solve_batch(&targets, &table, &mut scratch, out)
                    });
                    let mut expected_sweeps = 0;
                    for (res, &t) in batch.iter().zip(&targets) {
                        let refr = reference_solve(&solver, &[t]);
                        assert_same(res, &refr);
                        expected_sweeps += refr.sweeps;
                    }
                    assert_eq!(sweeps, expected_sweeps);
                }
            }
        }
    }

    #[test]
    fn lane_kernel_warm_batches_match_the_reference_bitwise() {
        let mut rng = SimRng::seed_from_u64(53);
        for bits in 1u8..=3 {
            let mut solver = WeightSolver::single(random_phasors(40, 70 + bits as u64), bits);
            let table = solver.state_table();
            let mut scratch = SolverScratch::new();
            for max_sweeps in [0, 1, 2, 6] {
                solver.max_sweeps = 6;
                let n = 33;
                let before = batch_targets(n, 40, &mut rng);
                let (solved, _) = solve_into_batch(&solver, n, |out| {
                    solver.solve_batch(&before, &table, &mut scratch, out)
                });
                // Odd weights restart from their converged codes at their
                // old target; even ones from perturbed codes at a nudged
                // target.
                let mut starts: Vec<Vec<PhaseCode>> = Vec::new();
                let mut targets = Vec::new();
                for (j, (res, &t)) in solved.iter().zip(&before).enumerate() {
                    let mut codes = res.codes.clone();
                    if j % 2 == 0 {
                        for c in codes.iter_mut() {
                            if rng.chance(0.2) {
                                *c = PhaseCode::new(rng.below(1 << bits) as u8, bits);
                            }
                        }
                        targets.push(t + C64::new(1.5, -1.0));
                    } else {
                        targets.push(t);
                    }
                    starts.push(codes);
                }
                solver.max_sweeps = max_sweeps;
                for n in BATCH_SIZES {
                    let initial = packed(&starts[..n]);
                    let (batch, sweeps) = solve_into_batch(&solver, n, |out| {
                        solver.solve_batch_warm(&targets[..n], &initial, &table, &mut scratch, out)
                    });
                    let mut expected_sweeps = 0;
                    for ((res, &t), start) in batch.iter().zip(&targets).zip(&starts) {
                        let refr = reference_descend(&solver, &[t], start.clone());
                        assert_same(res, &refr);
                        expected_sweeps += refr.sweeps;
                    }
                    assert_eq!(sweeps, expected_sweeps);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different bit depth")]
    fn a_warm_batch_rejects_indices_past_the_depth() {
        let solver = WeightSolver::single(random_phasors(8, 3), 1);
        let table = solver.state_table();
        let mut initial = vec![0u8; 8];
        initial[3] = 2;
        solve_into_batch(&solver, 1, |out| {
            solver.solve_batch_warm(
                &[C64::ONE],
                &initial,
                &table,
                &mut SolverScratch::new(),
                out,
            )
        });
    }

    /// A host runs only its widest instantiation, so drive the portable
    /// body (what non-x86 builds ship) against the AVX2 and AVX-512 builds
    /// directly, cold and warm, at every depth. An arm the CPU lacks is
    /// skipped with a note.
    #[test]
    fn lane_kernel_isa_paths_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            type Kernel<const S: usize> = unsafe fn(
                &WeightSolver,
                &[C64],
                Start<'_>,
                &StateTable,
                &mut SolverScratch,
                &mut BatchOutput<'_>,
            ) -> usize;
            /// Solves cold, then warm from perturbed codes, with the
            /// portable body and with `kernel`, and asserts the same bits.
            fn check<const S: usize>(bits: u8, kernel: Kernel<S>, rng: &mut SimRng) {
                let solver = WeightSolver::single(random_phasors(64, 80 + bits as u64), bits);
                let table = solver.state_table();
                let mut scratch = SolverScratch::new();
                let targets = batch_targets(33, 64, rng);
                let n = targets.len();
                let cold = Start::PhaseAligned;
                let portable = solve_into_batch(&solver, n, |mut out| {
                    lanes::<S>(&solver, &targets, cold, &table, &mut scratch, &mut out)
                });
                // SAFETY: the caller checked the CPU runs `kernel`.
                let wide = solve_into_batch(&solver, n, |mut out| unsafe {
                    kernel(&solver, &targets, cold, &table, &mut scratch, &mut out)
                });
                assert_eq!(portable.1, wide.1);
                for (a, b) in portable.0.iter().zip(&wide.0) {
                    assert_same(a, b);
                }
                let starts: Vec<Vec<PhaseCode>> = portable
                    .0
                    .iter()
                    .map(|r| {
                        let mut codes = r.codes.clone();
                        for c in codes.iter_mut().step_by(5) {
                            c.index = rng.below(S) as u8;
                        }
                        codes
                    })
                    .collect();
                let initial = packed(&starts);
                let nudged: Vec<C64> = targets.iter().map(|&t| t + C64::new(1.0, -0.5)).collect();
                let warm = Start::Warm(&initial);
                let portable = solve_into_batch(&solver, n, |mut out| {
                    lanes::<S>(&solver, &nudged, warm, &table, &mut scratch, &mut out)
                });
                // SAFETY: as above.
                let wide = solve_into_batch(&solver, n, |mut out| unsafe {
                    kernel(&solver, &nudged, warm, &table, &mut scratch, &mut out)
                });
                assert_eq!(portable.1, wide.1);
                for (a, b) in portable.0.iter().zip(&wide.0) {
                    assert_same(a, b);
                }
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut rng = SimRng::seed_from_u64(59);
                check::<2>(1, run_lanes_avx2::<2>, &mut rng);
                check::<4>(2, run_lanes_avx2::<4>, &mut rng);
                check::<8>(3, run_lanes_avx2::<8>, &mut rng);
            } else {
                println!("note: no AVX2 on this host; AVX2 parity not checked");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                let mut rng = SimRng::seed_from_u64(59);
                check::<2>(1, run_lanes_avx512::<2>, &mut rng);
                check::<4>(2, run_lanes_avx512::<4>, &mut rng);
                check::<8>(3, run_lanes_avx512::<8>, &mut rng);
            } else {
                println!("note: no AVX-512F on this host; AVX-512 parity not checked");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("note: not an x86-64 host; only the portable path exists");
    }
}
