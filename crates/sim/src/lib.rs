//! Stacked multi-layer metasurface inference — the L-layer cascade as a
//! first-class workload.
//!
//! The paper's deployment is a single programmable surface: one trained
//! complex LNN `W ∈ ℂ^{R×U}`, one 2-bit schedule, one far-field link.
//! Stacked intelligent metasurfaces (Stylianopoulos et al.,
//! arXiv:2504.00233) cascade L programmable surfaces along the Tx → Rx
//! path; the receiver sees the *product* channel
//!
//! ```text
//! H_eff[r, i] = Π_l  α_l · A_l[r, i]
//! ```
//!
//! where `A_l` is the normalized atom sum layer `l` programs for weight
//! `(r, i)` and `α_l` is that hop's common amplitude. This crate models
//! the cascade over the existing [`metaai_mts`] types:
//!
//! * [`stack`] — cascade geometry: per-layer [`MtsArray`]s placed along
//!   the path, one [`MtsLink`] per hop, re-linkable when the endpoints
//!   move ([`stack::StackGeometry`]);
//! * [`StackWeights`] (re-exported from [`metaai_nn`]) — the
//!   product-parameterized layer weights `W_eff = W_0 ⊙ W_1 ⊙ …`, which
//!   [`TrainEngine::train_stack`](metaai_nn::TrainEngine::train_stack)
//!   trains jointly by Wirtinger descent in the same loop as the single
//!   complex LNN (L = 1), bitwise independent of the rayon worker count;
//! * [`solve`] — per-layer reuse of the 2-bit state-table solver's lane
//!   kernel ([`metaai_mts::solver::WeightSolver::solve_batch`], plus the
//!   warm variant for online adaptation), with *residual compensation*: layer
//!   `l ≥ 1` retargets against the error the layers before it actually
//!   accumulated, so the cascade's multiplicative quantization error is
//!   actively cancelled rather than compounded ([`solve::StackSolver`]).
//!   Each layer's programme is a [`WeightSchedule`], its `R × U`
//!   configurations packed one byte per atom
//!   ([`PackedCodes`](metaai_mts::atom::PackedCodes)), which the kernel
//!   writes in place and [`realize_stack`] reads row by row.
//!
//! The paper's single surface is the L = 1 case, not a separate model:
//! `metaai::mapper::WeightMapper` is a one-layer [`StackSolver`], and
//! every `metaai::MetaAiSystem` deploys through [`StackGeometry`],
//! [`StackSolver`] and [`realize_stack`]. For one layer the geometry's
//! link is the plain [`MtsLink`], [`StackWeights::from_effective`] keeps
//! the network itself, and layer 0's target is never clamped, so the
//! single surface is solved exactly as the paper's Eqns 7–8 state.
//!
//! The digital expressivity of the product parameterization equals a
//! single LNN (an entrywise product of complex scalars is one complex
//! scalar) — the stacked win is *physical*. Each layer re-radiates the
//! full aperture sum of the one before it, so at an equal total atom
//! budget the composed programmed path is far stronger than a single
//! surface's (`reach(M/L)^L ≫ reach(M)`), lifting it further above the
//! absolute-scale environmental leakage the cancellation scheme can't
//! fully remove; meanwhile the residual compensation keeps the L
//! per-layer 2-bit quantization errors from compounding
//! multiplicatively. `metaai::pipeline` composes the effective
//! [`CMat`](metaai_math::CMat) from this crate's schedules, so the fused
//! scoring engine, serving, and hot swap are unchanged downstream.
//!
//! [`MtsArray`]: metaai_mts::array::MtsArray
//! [`MtsLink`]: metaai_mts::channel::MtsLink

pub mod solve;
pub mod stack;

pub use metaai_nn::StackWeights;
pub use solve::{realize_stack, StackSchedule, StackSolver, WeightSchedule};
pub use stack::{StackGeometry, StackSpec};
