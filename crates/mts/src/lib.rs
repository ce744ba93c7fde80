//! Programmable metasurface (MTS) model.
//!
//! The paper's prototypes are 16 × 16 arrays of 2-bit meta-atoms (PIN-diode
//! phase shifters with states 0, π/2, π, 3π/2), one dual-band (2.4/5 GHz)
//! and one single-band (3.5 GHz), driven by an STM32 through banks of
//! shift registers at up to 2.56 M configuration patterns per second.
//!
//! This crate models everything the computation depends on:
//!
//! * individual meta-atoms with discrete phase states, fabrication phase
//!   error, and stuck-at faults ([`atom`]),
//! * the planar array and its two fabricated prototypes ([`mod@array`]),
//! * far-field channel synthesis — Eqn 4 of the paper, with the
//!   product-distance path loss of a reflectarray link and the element
//!   pattern that limits the field of view ([`channel`]),
//! * the weight solver that maps a desired complex weight onto discrete
//!   atom states — Eqn 7, its multipath-aware variant Eqn 8, and the
//!   joint multi-target form used by both parallelism schemes
//!   ([`solver`]),
//! * beam scanning for receiver-angle estimation ([`beamscan`]),
//! * the controller timing/energy model ([`control`]), and
//! * the weight-distribution-density metric of Appendix A.2 ([`wdd`]).

pub mod array;
pub mod atom;
pub mod beamscan;
pub mod channel;
pub mod control;
pub mod solver;
pub mod wdd;

pub use array::{MtsArray, Prototype};
pub use atom::{MetaAtom, PackedCodes, PhaseCode};
pub use channel::MtsLink;
pub use solver::WeightSolver;
