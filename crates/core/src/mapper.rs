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
//!
//! A [`WeightMapper`] is a one-layer [`StackSolver`]: the paper's single
//! surface is the L = 1 case of the cascade, and both share one solve
//! loop ([`metaai_sim::solve`]).

use crate::config::SystemConfig;
use metaai_math::{CMat, C64};
use metaai_mts::array::MtsArray;
use metaai_mts::channel::MtsLink;
use metaai_mts::solver::SolverScratch;
use metaai_sim::{StackSchedule, StackSolver};
use std::slice;
use std::sync::Arc;

pub use metaai_sim::WeightSchedule;

/// Builds [`WeightSchedule`]s for a fixed link geometry.
pub struct WeightMapper {
    /// The far-field link the schedule is solved against.
    pub link: MtsLink,
    /// The one-layer solver over the link's path phasors.
    solver: StackSolver,
}

impl WeightMapper {
    /// Creates a mapper for the system's default geometry.
    pub fn new(config: &SystemConfig, array: &MtsArray) -> Self {
        let link = MtsLink::new(array, config.tx, config.rx, config.freq_hz);
        WeightMapper::from_link(link, config.kappa)
    }

    /// Creates a mapper from an explicit link.
    pub fn from_link(link: MtsLink, kappa: f64) -> Self {
        let solver = StackSolver::from_links(slice::from_ref(&link), kappa);
        WeightMapper { link, solver }
    }

    /// Solves the full schedule for `weights` (Eqn 7), rayon-parallel over
    /// weights. `h_env_offset` is the Eqn 8 compensation term in
    /// *normalized* units (`H_e / α_p`), or zero when the cancellation
    /// scheme handles multipath instead.
    pub fn map(&self, weights: &CMat, h_env_offset: C64) -> WeightSchedule {
        only_layer(self.solver.solve(slice::from_ref(weights), h_env_offset))
    }

    /// [`map`](Self::map), warm-started from a previous schedule's codes —
    /// the online-adaptation path ([`StackSolver::resolve_warm`]):
    /// sequential on the caller's thread, reusing `scratch` across all
    /// `R × U` solves (reuse it across rounds too).
    pub fn remap(
        &self,
        weights: &CMat,
        h_env_offset: C64,
        warm: &WeightSchedule,
        scratch: &mut SolverScratch,
    ) -> WeightSchedule {
        only_layer(self.solver.resolve_warm(
            slice::from_ref(weights),
            h_env_offset,
            slice::from_ref(warm),
            scratch,
        ))
    }
}

/// The layer of a one-layer programme (just built, so the `Arc` is not
/// shared and unwrapping it copies nothing).
fn only_layer(mut schedule: StackSchedule) -> WeightSchedule {
    let layer = schedule.layers.pop().expect("a one-layer solve");
    Arc::unwrap_or_clone(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::rng::SimRng;
    use metaai_mts::array::Prototype;
    use metaai_mts::solver::WeightSolver;

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
        let s = m.map(&w, C64::ZERO).scale;
        let reach = WeightSolver::single(m.link.path_phasors.clone(), 2).reachable_radius(0);
        assert!((s * w.max_abs() - m.solver.kappa * reach).abs() < 1e-9);
    }

    #[test]
    fn schedule_covers_all_weights() {
        let m = small_mapper();
        let w = random_weights(3, 6, 2);
        let sched = m.map(&w, C64::ZERO);
        assert_eq!(sched.num_outputs(), 3);
        assert_eq!(sched.num_symbols(), 6);
        assert_eq!(sched.codes(2, 5).len(), 256);
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
        assert_eq!(a.packed(), b.packed());
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

        assert_eq!(warm.num_outputs(), 3);
        assert_eq!(warm.num_symbols(), 6);
        assert_eq!(warm.packed().len(), 3 * 6);
        let warm_rel = warm.relative_error(&w);
        let cold_rel = cold.relative_error(&w);
        assert!(
            warm_rel < cold_rel + 0.01,
            "warm remap error {warm_rel} vs cold {cold_rel}"
        );

        // And it is a pure function of its inputs: scratch reuse across
        // rounds changes nothing.
        let again = after.remap(&w, C64::ZERO, &base, &mut scratch);
        assert_eq!(warm.packed(), again.packed());
        assert_eq!(warm.achieved, again.achieved);
    }

    #[test]
    #[should_panic(expected = "all-zero weight")]
    fn rejects_zero_weights() {
        let m = small_mapper();
        m.map(&CMat::zeros(2, 2), C64::ZERO);
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
        assert_eq!(m.solver.kappa, 1.0);
    }
}
