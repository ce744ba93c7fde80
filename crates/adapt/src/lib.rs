//! Online channel adaptation — the closed loop that keeps a *served*
//! MetaAI deployment fresh while the physical channel drifts underneath
//! it.
//!
//! The paper recovers from receiver movement by reconfiguring the surface
//! through a feedback loop (Sec 4) and frames mobility as a race between
//! the target's speed and that recalibration (Sec 7). This crate is that
//! loop, and it runs *under live traffic* — a serving deployment cannot
//! stop:
//!
//! 1. **observe** — seeded accuracy probes, the solver residual
//!    `|H_mts − H_des|`, and score-margin statistics are sampled against
//!    the live (possibly drifted) channel each round ([`probe`]);
//! 2. **decide** — a configurable trigger policy (thresholds +
//!    hysteresis + cooldown) turns noisy readings into a trigger
//!    decision ([`policy`]);
//! 3. **re-solve** — on trigger, the schedule is re-solved against the
//!    drifted geometry with the warm-started state-table kernel
//!    ([`metaai::pipeline::redeploy_warm`]), sequentially, on the
//!    controller's own thread — serving workers never contend for the
//!    solve;
//! 4. **swap** — the fresh system is installed through
//!    [`metaai_serve::ModelEntry::swap`]: epoch-versioned, shape-checked,
//!    zero downtime. In-flight batches finish on the old epoch; the next
//!    batch scores on the new one.
//!
//! Every stage is deterministic given the probe seed and the channel
//! view: the trigger round, the re-solved schedule, and the new epoch are
//! bitwise reproducible across runs and worker counts.
//!
//! Per-tenant: one [`AdaptController`] per [`ModelEntry`]; tenants adapt
//! independently.
//!
//! [`ModelEntry`]: metaai_serve::ModelEntry

pub mod controller;
pub mod metrics;
pub mod policy;
pub mod probe;
pub mod view;

pub use controller::{AdaptController, AdaptHandle, ControllerPanic, StepReport, SwapRecord};
pub use metrics::register_metrics;
pub use policy::{Decision, PolicyState, TriggerPolicy};
pub use probe::{probe_health, HealthReading, ProbeSet};
pub use view::{ChannelView, InterferenceDrift, MobilityDrift, StaticChannel};
