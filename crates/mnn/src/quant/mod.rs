//! Quantised postings: SoA vector storage, product-quantisation codebooks
//! and the asymmetric-distance backend.
//!
//! A millions-of-ads corpus neither fits nor streams fast as full-precision
//! owned points. This subsystem brings the memory footprint and scan
//! bandwidth down in two layers:
//!
//! * [`soa`] — [`soa::ComponentBlocks`], the contiguous structure-of-arrays
//!   point storage (fixed-stride coordinate block + squared-norm and weight
//!   lanes per curvature component) that *every* backend's distance kernels
//!   now scan through via [`crate::MixedPointSet`],
//! * [`codebook`] — deterministic k-means sub-codebooks, one per curvature
//!   component, trained in each component's tangent space from the compat
//!   `StdRng`,
//! * [`codes`] — the quantised postings themselves: one `u8` code plus one
//!   `f32` attention weight per component per ad, scanned against a
//!   per-query asymmetric distance table built over the mixed-curvature
//!   geodesic,
//! * [`backend`] — [`QuantIndex`], the fourth [`crate::AnnIndex`]
//!   implementation: approximate table scan, exact top-`rerank_k` rerank
//!   (corpus-wide `rerank_k` makes it bit-identical to the exact backend).

pub mod backend;
pub mod codebook;
pub mod codes;
pub mod soa;

pub use backend::{QuantConfig, QuantIndex};
pub use codebook::Codebook;
pub use codes::{AsymmetricTable, CodeBlocks};
