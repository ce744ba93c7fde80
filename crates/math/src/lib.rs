//! Mathematical foundations for the MetaAI workspace.
//!
//! This crate deliberately owns its numerics instead of pulling in a large
//! linear-algebra stack: the rest of the workspace needs exactly
//!
//! * complex arithmetic ([`C64`]) for baseband signals and channel weights,
//! * small dense complex matrices/vectors ([`CMat`], [`CVec`]) for
//!   linear-neural-network training and metasurface channel synthesis,
//! * real dense matrices ([`RMat`]) for the digital deep baseline,
//! * a radix-2 FFT ([`fft`]) for OFDM,
//! * descriptive statistics ([`stats`]) for the experiment harness, and
//! * deterministic, seedable random sources ([`rng`]).
//!
//! Everything is written for clarity first. There are two concessions to
//! raw speed: [`CPlanes`], a split re/im column-major copy of a [`CMat`]
//! that the inference engine's fused scoring kernel streams through the
//! autovectorizer, and [`CMat::matvec`], the training forward pass, which
//! sweeps rows in register blocks with the bits of the plain per-row fold.
//! Everywhere else the matrices involved are small (hundreds by tens) and
//! cache-oblivious blocking or explicit SIMD would be noise.

pub mod cmat;
pub mod complex;
pub mod cvec;
pub mod fft;
pub mod rmat;
pub mod rng;
pub mod soa;
pub mod stats;

pub use cmat::CMat;
pub use complex::C64;
pub use cvec::{cyclic_offset, shifted_index, CVec};
pub use rmat::RMat;
pub use soa::CPlanes;
