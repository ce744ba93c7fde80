//! Workspace-wide telemetry wiring.
//!
//! Every instrumented stage registers its instruments lazily, on first
//! use; a snapshot taken before a stage ran would silently omit it.
//! [`install`] forces registration across all instrumented crates so a
//! `--metrics-out` snapshot always lists the full instrument set (engine,
//! trainer, solver, stack solve, pipeline, parallel), zero-valued
//! where a stage never ran.
//!
//! The instrument naming scheme is `metaai.<crate>.<stage>.<what>` —
//! see DESIGN.md §10 for the full inventory and the rules for adding one.

pub use metaai_telemetry::{enabled, global, set_enabled, Registry};

/// Registers every instrument in the workspace with the global registry
/// and returns it. Idempotent and cheap after the first call.
pub fn install() -> &'static Registry {
    metaai_mts::solver::register_metrics();
    metaai_nn::engine::register_metrics();
    crate::engine::register_metrics();
    metaai_sim::solve::register_metrics();
    crate::pipeline::register_metrics();
    crate::parallel::register_metrics();
    metaai_telemetry::global()
}

#[cfg(test)]
mod tests {
    use metaai_telemetry::MetricValue;

    #[test]
    fn install_registers_every_stage() {
        let registry = super::install();
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "metaai.core.engine.samples",
            "metaai.core.engine.chips",
            "metaai.core.engine.sample_seconds",
            "metaai.sim.stack.solve_seconds",
            "metaai.core.pipeline.deploy_seconds",
            "metaai.core.parallel.deploys",
            "metaai.nn.train.epoch_seconds",
            "metaai.nn.train.samples_per_sec",
            "metaai.mts.solver.residual",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        let residual = snap
            .iter()
            .find(|m| m.name == "metaai.mts.solver.residual")
            .expect("checked above");
        assert!(
            matches!(residual.value, MetricValue::Histogram(_)),
            "the Eqn-4 residual signal must be a distribution"
        );
    }
}
