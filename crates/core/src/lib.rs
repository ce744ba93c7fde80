//! MetaAI — over-the-air neural network inference through a programmable
//! metasurface.
//!
//! This crate is the paper's primary contribution: it glues the substrates
//! (`metaai-rf`, `metaai-mts`, `metaai-phy`, `metaai-nn`,
//! `metaai-datasets`) into the end-to-end system of Fig 1(c):
//!
//! 1. a complex linear network is trained digitally ([`metaai_nn`]),
//! 2. its weights are mapped onto per-symbol metasurface configurations
//!    ([`mapper`], Eqns 5–8),
//! 3. an IoT transmitter sends its raw modulated data; the metasurface
//!    reprograms the channel symbol-by-symbol so the receiver's
//!    accumulation *is* the network's output ([`ota`], Eqn 3),
//! 4. with multipath cancellation via zero-mean chips, CDFA clock
//!    synchronization, and noise-alleviation training layered on top.
//!
//! Higher-level capabilities: antenna- and subcarrier-parallelism
//! ([`parallel`], Eqns 9–10), multi-sensor fusion ([`fusion`],
//! Eqns 11–12), the end-to-end energy/latency model of Appendix A.4
//! ([`energy`]) and the receiver-mobility recalibration race
//! ([`mobility`]).
//!
//! Every deployment is an L-layer cascade modeled in [`metaai_sim`]; the
//! paper's single surface is L = 1, the default of
//! [`layers(L)`](pipeline::SystemBuilder::layers). One schedule type
//! ([`WeightSchedule`]), one solve loop ([`metaai_sim::StackSolver`],
//! which [`WeightMapper`] wraps for one layer) and one realization
//! ([`metaai_sim::realize_stack`]) serve both.
//!
//! Start with [`config::SystemConfig`] and [`pipeline::MetaAiSystem`]; the
//! `examples/` directory of the workspace shows complete flows.

pub mod config;
pub mod energy;
pub mod engine;
pub mod fusion;
pub mod mapper;
pub mod mobility;
pub mod ota;
pub mod parallel;
pub mod pipeline;
pub mod privacy;
pub mod telemetry;
pub mod trace;

pub use config::SystemConfig;
pub use engine::OtaEngine;
pub use mapper::{WeightMapper, WeightSchedule};
pub use ota::{OtaConditions, OtaReceiver};
pub use pipeline::{MetaAiSystem, StackDeployment, SystemBuilder};
