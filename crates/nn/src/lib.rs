//! Neural networks for MetaAI.
//!
//! The paper's model (Sec 3.1) is deliberately minimal: one complex-valued
//! fully-connected layer whose `U × R` weights are later realized by the
//! metasurface, trained with complex backpropagation and momentum SGD
//! (lr 8 × 10⁻³, momentum 0.95, batch 64, 60 epochs). This crate provides
//! that model and every training-time scheme the system needs:
//!
//! * the complex linear network with Wirtinger-calculus gradients, and
//!   its product parameterization across L stacked surfaces
//!   ([`complex_lnn`], [`StackWeights`]),
//! * magnitude + softmax cross-entropy loss ([`loss`]),
//! * the batched deterministic training engine, one loop for every L
//!   ([`engine`]), and its config, per-epoch statistics and evaluation
//!   ([`train`]),
//! * the CDFA cyclic-shift and SNR-degradation augmentations
//!   ([`augment`]),
//! * the DiscreteNN baseline trained with discrete weights from the start
//!   ([`discrete`]),
//! * the real-valued deep baseline standing in for the paper's ResNet-18
//!   reference point ([`deep`]), and
//! * the traditional stacked-metasurface PNN simulator used by
//!   Appendix A.1 / Fig 29 ([`pnn_stack`]), and
//! * the paper's future-work direction made concrete: a multi-layer
//!   complex network with modReLU nonlinearities ([`deep_complex`]).
//!
//! Dataset containers live in [`data`]; the `metaai-datasets` crate fills
//! them.

pub mod augment;
pub mod complex_lnn;
pub mod data;
pub mod deep;
pub mod deep_complex;
pub mod discrete;
pub mod engine;
pub mod io;
pub mod loss;
pub mod metrics;
pub mod pnn_stack;
pub mod train;

pub use complex_lnn::{ComplexLnn, StackWeights};
pub use data::{ComplexDataset, RealDataset};
pub use engine::TrainEngine;
pub use train::TrainConfig;
