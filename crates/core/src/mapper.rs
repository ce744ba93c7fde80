//! Mapping trained network weights onto metasurface schedules.
//!
//! After digital training produces `H_des ∈ ℂ^{R×U}`, the mapper:
//!
//! 1. picks one *global* scale σ placing the largest weight at
//!    `κ · reachable radius` — a common factor across all outputs, which
//!    is classification-invariant (Sec 3.2 of the paper);
//! 2. solves Eqn 7 per (output, symbol) for the 2-bit configuration whose
//!    channel sum approximates `σ·w_{r,i}` (optionally Eqn 8's
//!    multipath-aware variant, offsetting a known static `H_e`);
//! 3. records both the code schedule (what the controller loads) and the
//!    achieved complex sums (what the physics will deliver).

use crate::config::SystemConfig;
use metaai_math::{CMat, C64};
use metaai_mts::array::MtsArray;
use metaai_mts::atom::PhaseCode;
use metaai_mts::channel::MtsLink;
use metaai_mts::solver::{SolverScratch, StateTable, WeightSolver};
use metaai_telemetry::{Counter, Histogram};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Mapper-stage instruments, registered once with the global registry.
struct MapperMetrics {
    maps: Counter,
    weights_mapped: Counter,
    map_seconds: Histogram,
}

fn metrics() -> &'static MapperMetrics {
    static METRICS: OnceLock<MapperMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metaai_telemetry::global();
        MapperMetrics {
            maps: r.counter("metaai.core.mapper.maps"),
            weights_mapped: r.counter("metaai.core.mapper.weights_mapped"),
            map_seconds: r.latency_histogram("metaai.core.mapper.map_seconds"),
        }
    })
}

/// Registers the mapper's instruments with the global telemetry registry.
pub fn register_metrics() {
    let _ = metrics();
}

/// Weights solved per parallel work item in [`WeightMapper::map`]. Each
/// chunk owns one [`SolverScratch`], amortizing buffer allocation over the
/// chunk instead of paying it per (r, i).
const MAP_CHUNK: usize = 32;

/// The complete metasurface programme for one trained network: one
/// configuration per (output class, input symbol).
#[derive(Clone, Debug)]
pub struct WeightSchedule {
    /// `codes[r][i]` is the atom configuration realizing weight `(r, i)`.
    pub codes: Vec<Vec<Vec<PhaseCode>>>,
    /// Achieved normalized channel sums (`Σ e^{j(φ^p+φ)}`), `R × U`.
    pub achieved: CMat,
    /// The global weight scale σ applied before solving.
    pub scale: f64,
    /// RMS solver residual across all weights (normalized units).
    pub rms_residual: f64,
}

impl WeightSchedule {
    /// Number of output classes.
    pub fn num_outputs(&self) -> usize {
        self.codes.len()
    }

    /// Number of input symbols.
    pub fn num_symbols(&self) -> usize {
        self.codes.first().map_or(0, |c| c.len())
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

/// Builds [`WeightSchedule`]s for a fixed link geometry.
pub struct WeightMapper {
    /// The far-field link the schedule is solved against.
    pub link: MtsLink,
    /// Single-target solver sharing the link's path phasors.
    solver: WeightSolver,
    /// Precomputed per-atom state contributions, shared by every solve.
    table: StateTable,
    /// Safe reachable radius (normalized units).
    pub reach: f64,
    /// κ safety factor.
    pub kappa: f64,
}

impl WeightMapper {
    /// Creates a mapper for the system's default geometry.
    pub fn new(config: &SystemConfig, array: &MtsArray) -> Self {
        let link = MtsLink::new(array, config.tx, config.rx, config.freq_hz);
        WeightMapper::from_link(link, config.kappa)
    }

    /// Creates a mapper from an explicit link.
    pub fn from_link(link: MtsLink, kappa: f64) -> Self {
        // κ = 0 would scale every weight to the origin and make the
        // schedule meaningless, so zero is excluded (the old
        // `(0.0..=1.0).contains` check let it through).
        assert!(kappa > 0.0 && kappa <= 1.0, "κ must be in (0, 1]");
        let solver = WeightSolver::single(link.path_phasors.clone(), 2);
        let table = solver.state_table();
        let reach = solver.reachable_radius(0);
        WeightMapper {
            link,
            solver,
            table,
            reach,
            kappa,
        }
    }

    /// The global scale σ for a weight matrix: `κ·reach / max|w|`.
    pub fn weight_scale(&self, weights: &CMat) -> f64 {
        let max_w = weights.max_abs();
        assert!(max_w > 0.0, "cannot map an all-zero weight matrix");
        self.kappa * self.reach / max_w
    }

    /// Solves the full schedule for `weights` (Eqn 7). `h_env_offset` is
    /// the Eqn 8 compensation term in *normalized* units (`H_e / α_p`),
    /// or zero when the cancellation scheme handles multipath instead.
    pub fn map(&self, weights: &CMat, h_env_offset: C64) -> WeightSchedule {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.map_seconds.span());
        let scale = self.weight_scale(weights);
        let r = weights.rows();
        let u = weights.cols();
        if let Some(m) = tele {
            m.maps.inc();
            m.weights_mapped.add((r * u) as u64);
        }

        // Solve each (r, i) independently — embarrassingly parallel. Work
        // is chunked so each worker reuses one solver scratch across its
        // chunk; the state table is shared read-only by everyone.
        let total = r * u;
        let per_chunk: Vec<Vec<(Vec<PhaseCode>, C64, f64)>> = (0..total.div_ceil(MAP_CHUNK))
            .into_par_iter()
            .map(|c| {
                let mut scratch = SolverScratch::new();
                let lo = c * MAP_CHUNK;
                let hi = (lo + MAP_CHUNK).min(total);
                (lo..hi)
                    .map(|idx| {
                        let (row, col) = (idx / u, idx % u);
                        let target = weights[(row, col)] * scale - h_env_offset;
                        let res = self.solver.solve_with(&[target], &self.table, &mut scratch);
                        (res.codes, res.achieved[0], res.residual)
                    })
                    .collect()
            })
            .collect();

        let mut codes = vec![vec![Vec::new(); u]; r];
        let mut achieved = CMat::zeros(r, u);
        let mut sq_sum = 0.0;
        for (idx, (c, a, resid)) in per_chunk.into_iter().flatten().enumerate() {
            let (row, col) = (idx / u, idx % u);
            codes[row][col] = c;
            achieved[(row, col)] = a;
            sq_sum += resid * resid;
        }

        WeightSchedule {
            codes,
            achieved,
            scale,
            rms_residual: (sq_sum / (r * u) as f64).sqrt(),
        }
    }

    /// [`map`](Self::map), warm-started from a previous schedule's codes —
    /// the online-adaptation path: after a small channel drift the old
    /// configuration is already near the new optimum, so each (r, i)
    /// solve is seeded with `warm.codes[r][i]` instead of the
    /// phase-aligned initialization and typically converges in a sweep
    /// or two.
    ///
    /// Deliberately **sequential**: the re-solve runs on the adaptation
    /// controller's single low-priority thread, so it neither steals
    /// cores from serving workers nor lets the worker count influence the
    /// result (remap output is a pure function of its inputs). One
    /// caller-owned `scratch` is reused across all `R × U` solves — reuse
    /// it across rounds too.
    pub fn remap(
        &self,
        weights: &CMat,
        h_env_offset: C64,
        warm: &WeightSchedule,
        scratch: &mut SolverScratch,
    ) -> WeightSchedule {
        let tele = metaai_telemetry::enabled().then(metrics);
        let _span = tele.map(|m| m.map_seconds.span());
        let scale = self.weight_scale(weights);
        let r = weights.rows();
        let u = weights.cols();
        assert_eq!(
            (warm.num_outputs(), warm.num_symbols()),
            (r, u),
            "warm schedule shape must match the weight matrix"
        );
        if let Some(m) = tele {
            m.maps.inc();
            m.weights_mapped.add((r * u) as u64);
        }

        let mut codes = vec![vec![Vec::new(); u]; r];
        let mut achieved = CMat::zeros(r, u);
        let mut sq_sum = 0.0;
        for row in 0..r {
            for col in 0..u {
                let target = weights[(row, col)] * scale - h_env_offset;
                let res =
                    self.solver
                        .solve_warm(&[target], &warm.codes[row][col], &self.table, scratch);
                achieved[(row, col)] = res.achieved[0];
                sq_sum += res.residual * res.residual;
                codes[row][col] = res.codes;
            }
        }

        WeightSchedule {
            codes,
            achieved,
            scale,
            rms_residual: (sq_sum / (r * u) as f64).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::rng::SimRng;
    use metaai_mts::array::Prototype;

    fn small_mapper() -> WeightMapper {
        let config = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
        WeightMapper::new(&config, &array)
    }

    fn random_weights(r: usize, u: usize, seed: u64) -> CMat {
        let mut rng = SimRng::seed_from_u64(seed);
        CMat::from_fn(r, u, |_, _| rng.complex_gaussian(1.0))
    }

    #[test]
    fn scale_places_max_weight_at_kappa_reach() {
        let m = small_mapper();
        let w = random_weights(3, 8, 1);
        let s = m.weight_scale(&w);
        assert!((s * w.max_abs() - m.kappa * m.reach).abs() < 1e-9);
    }

    #[test]
    fn schedule_covers_all_weights() {
        let m = small_mapper();
        let w = random_weights(3, 6, 2);
        let sched = m.map(&w, C64::ZERO);
        assert_eq!(sched.num_outputs(), 3);
        assert_eq!(sched.num_symbols(), 6);
        assert_eq!(sched.codes[2][5].len(), 256);
    }

    #[test]
    fn achieved_sums_track_scaled_targets() {
        let m = small_mapper();
        let w = random_weights(2, 5, 3);
        let sched = m.map(&w, C64::ZERO);
        let rel = sched.relative_error(&w);
        assert!(rel < 0.02, "relative realization error {rel}");
    }

    #[test]
    fn env_offset_shifts_targets() {
        // With Eqn 8 compensation, achieved ≈ σ·w − H_e/α.
        let m = small_mapper();
        let w = random_weights(2, 3, 4);
        let offset = C64::new(5.0, -3.0);
        let sched = m.map(&w, offset);
        let expect = w[(1, 2)] * sched.scale - offset;
        let got = sched.achieved[(1, 2)];
        assert!((expect - got).abs() < 2.0, "expected ≈{expect}, got {got}");
    }

    #[test]
    fn mapping_is_deterministic() {
        let m = small_mapper();
        let w = random_weights(2, 4, 5);
        let a = m.map(&w, C64::ZERO);
        let b = m.map(&w, C64::ZERO);
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.codes, b.codes);
    }

    #[test]
    fn remap_tracks_a_moved_link_as_well_as_a_cold_map() {
        // Map against the paper geometry, nudge the receiver, and warm
        // re-map against the new link from the old schedule: quality must
        // stay within a whisker of a from-scratch map of the new link.
        let config = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
        let before = WeightMapper::new(&config, &array);
        let moved = SystemConfig {
            rx: metaai_rf::geometry::place_at(
                config.mts_center,
                3.0,
                metaai_rf::geometry::deg_to_rad(90.0 - 43.0),
                config.rx.z,
            ),
            ..config.clone()
        };
        let after = WeightMapper::new(&moved, &array);

        let w = random_weights(3, 6, 8);
        let base = before.map(&w, C64::ZERO);
        let cold = after.map(&w, C64::ZERO);
        let mut scratch = SolverScratch::new();
        let warm = after.remap(&w, C64::ZERO, &base, &mut scratch);

        assert_eq!(warm.codes.len(), 3);
        assert_eq!(warm.codes[0].len(), 6);
        let warm_rel = warm.relative_error(&w);
        let cold_rel = cold.relative_error(&w);
        assert!(
            warm_rel < cold_rel + 0.01,
            "warm remap error {warm_rel} vs cold {cold_rel}"
        );

        // And it is a pure function of its inputs: scratch reuse across
        // rounds changes nothing.
        let again = after.remap(&w, C64::ZERO, &base, &mut scratch);
        assert_eq!(warm.codes, again.codes);
        assert_eq!(warm.achieved, again.achieved);
    }

    #[test]
    #[should_panic(expected = "all-zero weight")]
    fn rejects_zero_weights() {
        let m = small_mapper();
        m.weight_scale(&CMat::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "κ must be in (0, 1]")]
    fn rejects_zero_kappa() {
        // Regression: the old `(0.0..=1.0).contains(&kappa)` check let
        // κ = 0 through despite the "(0, 1]" message.
        let config = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
        let link = MtsLink::new(&array, config.tx, config.rx, config.freq_hz);
        WeightMapper::from_link(link, 0.0);
    }

    #[test]
    fn accepts_boundary_kappa_of_one() {
        let config = SystemConfig::paper_default();
        let array = MtsArray::paper_prototype(Prototype::DualBand, config.mts_center);
        let link = MtsLink::new(&array, config.tx, config.rx, config.freq_hz);
        let m = WeightMapper::from_link(link, 1.0);
        assert_eq!(m.kappa, 1.0);
    }
}
