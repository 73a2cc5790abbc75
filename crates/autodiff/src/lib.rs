//! # amcad-autodiff
//!
//! A compact reverse-mode automatic-differentiation engine plus the
//! parameter store / AdaGrad optimiser used to train the AMCAD model.
//!
//! The original system trains on Alibaba's XDL parameter-server framework;
//! all trainable quantities (feature embeddings, GCN weights, attention
//! projections and the per-layer curvatures) live in tangent space and are
//! optimised with vanilla AdaGrad, gradient clipping and learning-rate
//! warm-up.  This crate reproduces that training substrate:
//!
//! * [`Tensor`] — dense row-major `f64` matrices,
//! * [`Tape`] / [`Var`] — the computation graph with reverse-mode
//!   [`Tape::backward`],
//! * [`manifold_ops`] — differentiable κ-stereographic operations (Möbius
//!   addition, exp/log maps, geodesic distance and the Fermi–Dirac
//!   similarity), property-tested against `amcad-manifold`,
//! * [`ParamStore`] — dense parameters + sparse embedding tables with
//!   AdaGrad, clipping and warm-up.

pub mod manifold_ops;
pub mod params;
pub mod tape;
pub mod tensor;

pub use params::{Batch, DenseId, OptimizerConfig, ParamStore, TableId};
pub use tape::{Gradients, Tape, Var};
pub use tensor::Tensor;
