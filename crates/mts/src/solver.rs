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
//! The same machinery extends to the **joint multi-target** problem of the
//! parallelism schemes (Eqns 9–10): one shared configuration must
//! approximate `K` different weights, one per receive antenna (or
//! per-subcarrier Fourier bin). The per-atom step then minimizes the sum
//! of squared errors across all targets.

use crate::atom::PhaseCode;
use metaai_math::C64;
use metaai_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

/// Bucket bounds for the Eqn-4 residual histogram `|H_mts − H_des|`
/// (normalized units). A healthy 256-atom solve lands well below 1.5, so
/// mass drifting into the upper buckets is a direct signal the discrete
/// realization is degrading.
const RESIDUAL_BOUNDS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

/// Solver-stage instruments, registered once with the global registry.
struct SolverMetrics {
    solves: Counter,
    sweeps: Counter,
    table_builds: Counter,
    residual: Histogram,
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
        }
    })
}

/// Registers the solver's instruments with the global telemetry registry,
/// so snapshots list them (zero-valued) even before the first solve.
pub fn register_metrics() {
    let _ = metrics();
}

/// Precomputed per-atom state contributions for one [`WeightSolver`]:
/// `contrib[t][atom · S + s] = phasors[t][atom] · e^{jφ_s}` with
/// `S = 2^bits` states.
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
    contrib: Vec<Vec<C64>>,
    init_args: Vec<f64>,
    n_states: usize,
}

/// Reusable per-worker workspace for [`WeightSolver::solve_with`]: the
/// codes and running-sums buffers that would otherwise be reallocated per
/// call.
#[derive(Clone, Debug, Default)]
pub struct SolverScratch {
    codes: Vec<PhaseCode>,
    sums: Vec<C64>,
}

impl SolverScratch {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        SolverScratch::default()
    }
}

/// Result of solving for one configuration.
#[derive(Clone, Debug)]
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
    /// it once and pass it to [`solve_with`](Self::solve_with) when solving
    /// many targets against the same geometry.
    pub fn state_table(&self) -> StateTable {
        let n_states = 1usize << self.bits;
        let state_phasors: Vec<C64> = (0..n_states)
            .map(|i| C64::cis(PhaseCode::new(i as u8, self.bits).phase()))
            .collect();
        let contrib = self
            .phasors
            .iter()
            .map(|row| {
                let mut c = Vec::with_capacity(row.len() * n_states);
                for &u in row {
                    for &sp in &state_phasors {
                        c.push(u * sp);
                    }
                }
                c
            })
            .collect();
        let init_args = self.phasors[0].iter().map(|u| u.arg()).collect();
        if metaai_telemetry::enabled() {
            metrics().table_builds.inc();
        }
        StateTable {
            contrib,
            init_args,
            n_states,
        }
    }

    /// Solves for one shared configuration approximating `targets[k]` on
    /// target `k`'s phasor set (all in normalized units, i.e. `H_des / α`).
    ///
    /// Builds the state table once per call; batch callers should build it
    /// themselves and use [`solve_with`](Self::solve_with).
    pub fn solve(&self, targets: &[C64]) -> SolveResult {
        self.solve_with(targets, &self.state_table(), &mut SolverScratch::new())
    }

    /// [`solve`](Self::solve) with a caller-provided state table and
    /// reusable workspace. `table` must come from this solver's
    /// [`state_table`](Self::state_table).
    ///
    /// Results are bitwise identical to the pre-table kernel: every product
    /// the original inner loop computed on the fly is looked up instead
    /// (same operands, same operation), and the summation order
    /// `(sums[t] + contrib) − targets[t]` is preserved exactly — do not
    /// "simplify" it to `(sums − targets) + contrib`, floating-point
    /// addition is not associative.
    pub fn solve_with(
        &self,
        targets: &[C64],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        self.check_inputs(targets, table);
        // Phase-aligned initialization against the first target: point each
        // atom's contribution at the target direction. Both angles are
        // hoisted — the target's out of the atom loop, the atoms' into the
        // table — with the operands and the subtraction unchanged.
        let target_arg = targets[0].arg();
        scratch.codes.clear();
        scratch.codes.extend(
            table
                .init_args
                .iter()
                .map(|&a| PhaseCode::quantize(target_arg - a, self.bits)),
        );
        self.descend(targets, table, scratch)
    }

    /// [`solve_with`](Self::solve_with), but warm-started from `initial`
    /// instead of the phase-aligned initialization — the online-adaptation
    /// path: when the channel drifts a little, the previous round's codes
    /// are already near the new optimum and descent converges in a sweep
    /// or two instead of re-deriving the configuration from scratch.
    ///
    /// The descent body is the exact same kernel `solve_with` runs, so a
    /// warm solve seeded with the codes the phase-aligned init would have
    /// produced is bitwise identical to the cold solve.
    pub fn solve_warm(
        &self,
        targets: &[C64],
        initial: &[PhaseCode],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        self.check_inputs(targets, table);
        assert_eq!(
            initial.len(),
            self.num_atoms(),
            "warm start must cover every atom"
        );
        assert!(
            initial.iter().all(|c| c.bits == self.bits),
            "warm-start codes use a different bit depth"
        );
        scratch.codes.clear();
        scratch.codes.extend_from_slice(initial);
        self.descend(targets, table, scratch)
    }

    fn check_inputs(&self, targets: &[C64], table: &StateTable) {
        assert_eq!(
            targets.len(),
            self.num_targets(),
            "one target per phasor set"
        );
        assert!(
            table.contrib.len() == self.num_targets() && table.init_args.len() == self.num_atoms(),
            "state table built for a different solver"
        );
    }

    /// The shared coordinate-descent body: `scratch.codes` must already
    /// hold one code per atom (the initialization); everything after that
    /// point is identical between cold and warm solves.
    fn descend(
        &self,
        targets: &[C64],
        table: &StateTable,
        scratch: &mut SolverScratch,
    ) -> SolveResult {
        let k = self.num_targets();
        let n_states = table.n_states;
        let codes = &mut scratch.codes;

        // Running sums per target (left fold from zero, matching `Sum`).
        scratch.sums.clear();
        scratch.sums.extend((0..k).map(|t| {
            codes
                .iter()
                .enumerate()
                .map(|(atom, c)| table.contrib[t][atom * n_states + c.index as usize])
                .fold(C64::ZERO, |a, b| a + b)
        }));
        let sums = &mut scratch.sums;

        let mut sweeps = 0;
        for sweep in 0..self.max_sweeps {
            sweeps = sweep + 1;
            let mut changed = false;
            for (atom, code) in codes.iter_mut().enumerate() {
                let base = atom * n_states;
                // Remove this atom's contribution from every sum.
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum -= table.contrib[t][base + code.index as usize];
                }
                // Try every state; keep the one minimizing total error.
                let mut best_state = code.index as usize;
                let mut best_err = f64::INFINITY;
                if k == 1 {
                    // Single-target fast path (the mapper's case). A
                    // one-element f64 sum is `0.0 + x = x`, so this matches
                    // the generic loop bit for bit.
                    let (sum0, target0) = (sums[0], targets[0]);
                    let row = &table.contrib[0][base..base + n_states];
                    for (s, &c) in row.iter().enumerate() {
                        let err = (sum0 + c - target0).norm_sq();
                        if err < best_err {
                            best_err = err;
                            best_state = s;
                        }
                    }
                } else {
                    for s in 0..n_states {
                        let err: f64 = (0..k)
                            .map(|t| {
                                let trial = sums[t] + table.contrib[t][base + s];
                                (trial - targets[t]).norm_sq()
                            })
                            .sum();
                        if err < best_err {
                            best_err = err;
                            best_state = s;
                        }
                    }
                }
                if best_state != code.index as usize {
                    changed = true;
                    *code = PhaseCode::new(best_state as u8, self.bits);
                }
                for (t, sum) in sums.iter_mut().enumerate() {
                    *sum += table.contrib[t][base + best_state];
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
        if metaai_telemetry::enabled() {
            let m = metrics();
            m.solves.inc();
            m.sweeps.add(sweeps as u64);
            m.residual.observe(residual);
        }
        SolveResult {
            codes: codes.clone(),
            achieved: sums.clone(),
            residual,
            sweeps,
        }
    }

    /// Convenience for the single-target case.
    pub fn solve_one(&self, target: C64) -> SolveResult {
        assert_eq!(self.num_targets(), 1, "solver has multiple targets");
        self.solve(&[target])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::rng::SimRng;

    fn random_phasors(m: usize, seed: u64) -> Vec<C64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..m).map(|_| rng.unit_phasor()).collect()
    }

    #[test]
    fn single_target_residual_is_small_for_m256() {
        let solver = WeightSolver::single(random_phasors(256, 1), 2);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..20 {
            let r = 0.6 * solver.reachable_radius(0) * rng.uniform();
            let target = C64::from_polar(r, rng.phase());
            let res = solver.solve_one(target);
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
                total += solver.solve_one(target).residual / m as f64;
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
        let res = solver.solve_one(C64::ZERO);
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
            let res = solver.solve(&targets);
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
            e1 += s1.solve_one(t).residual;
            e2 += s2.solve_one(t).residual;
        }
        assert!(e2 < e1, "2-bit {e2} must beat 1-bit {e1}");
    }

    /// The pre-table coordinate-descent kernel, kept verbatim as the
    /// reference the optimised `solve` must match bit for bit.
    fn reference_solve(solver: &WeightSolver, targets: &[C64]) -> SolveResult {
        assert_eq!(targets.len(), solver.num_targets());
        let k = solver.num_targets();
        let n_states = 1usize << solver.bits;
        let state_phasors: Vec<C64> = (0..n_states)
            .map(|i| C64::cis(PhaseCode::new(i as u8, solver.bits).phase()))
            .collect();
        let mut codes: Vec<PhaseCode> = solver.phasors[0]
            .iter()
            .map(|u| PhaseCode::quantize(targets[0].arg() - u.arg(), solver.bits))
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
        let a = solver.solve_one(t);
        let b = solver.solve_one(t);
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
        let res = solver.solve_one(C64::new(8.0, 3.0));
        let recomputed: C64 = phasors
            .iter()
            .zip(&res.codes)
            .map(|(&u, c)| u * C64::cis(c.phase()))
            .sum();
        assert!((recomputed - res.achieved[0]).abs() < 1e-9);
    }
}
