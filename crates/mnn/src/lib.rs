//! # amcad-mnn
//!
//! Mixed-curvature (approximate) nearest-neighbour search — the MNN module
//! of the paper (Section IV-C.1) that turns trained embeddings into the
//! inverted indices used by online ad retrieval.
//!
//! * [`MixedPointSet`] — flat storage of points of one edge space plus their
//!   precomputed attention weights,
//! * [`AnnIndex`] — the pluggable backend trait: per-query top-K search
//!   and bulk inverted-index construction over any candidate set,
//! * [`ExactBackend`] / [`build_exact_index`] — multi-threaded exact top-K
//!   scan (the paper's OpenMP + SIMD parallel brute force: key ranges on
//!   scoped threads, and a chunk kernel whose bound loop compiles to
//!   packed SSE2 arithmetic),
//! * [`IvfIndex`] — an inverted-file approximate index whose coarse
//!   quantiser lives in the shared tangent space, with recall measurement
//!   against the exact index ([`recall_at_k`]),
//! * [`HnswIndex`] — a hierarchical navigable-small-world graph over the
//!   mixed-curvature metric itself: sub-linear search with a tunable beam
//!   (`ef_search`),
//! * [`QuantIndex`] — quantised postings: per-component
//!   product-quantisation sub-codebooks trained in tangent space, one-byte
//!   codes scanned through a per-query asymmetric distance table over the
//!   mixed-curvature geodesic, and an exact top-`rerank_k` rerank,
//! * [`IndexBackend`] — the configuration enum downstream code uses to
//!   select a backend (`Exact`, `Ivf(IvfConfig)`, `Hnsw(HnswConfig)` or
//!   `Quant(QuantConfig)`),
//! * [`IdHashMap`] / [`IdHasher`] — the seedless node-id hasher behind
//!   every posting map, for maps whose keys only the corpus chooses,
//! * [`fork_join()`] — the workspace's one fork/join: indexed jobs on
//!   scoped threads, results in job order, used by the exact scan and by
//!   a deployment's cold build.
//!
//! ## Choosing a backend
//!
//! | backend | search cost | recall | knobs |
//! |---|---|---|---|
//! | `Exact` | O(n) per query, threaded bulk builds | 1.0 by definition | `threads` |
//! | `Ivf` | O(n/clusters × nprobe) | high, tunable | `num_clusters`, `nprobe` |
//! | `Hnsw` | ~O(log n) greedy + `ef_search` beam | high, tunable | `m`, `ef_construction`, `ef_search` |
//! | `Quant` | O(n) table lookups + `rerank_k` exact distances | high, tunable | `ksub`, `rerank_k` |
//!
//! The approximate backends each have a saturation point at which they
//! become exhaustive and bit-identical to the exact scan: probing every IVF
//! cluster (`nprobe == num_clusters`), an HNSW beam and degree at the
//! corpus size ([`HnswConfig::saturated`]), or a corpus-wide quantised
//! rerank (`rerank_k >= n`). The parity suites in
//! `tests/backend_parity.rs` pin all three.
//!
//! `Quant`'s approximate scan reads one `u8` code plus one `f32` weight per
//! curvature component per ad, against a full-precision point's
//! `8 × total_dim + 8 × components` bytes — the bench harness reports the
//! measured ratio in its `memory_footprint` section. That is build-time
//! memory: every backend only computes posting lists and is dropped once
//! they are built, so a serving replica holds posting lists, never codes.

pub mod backend;
pub mod brute;
pub mod fork_join;
pub mod hnsw;
pub mod id_hash;
pub mod ivf;
pub mod points;
pub mod quant;

pub use backend::{AnnIndex, ExactBackend, IndexBackend};
pub use brute::{build_exact_index, InvertedIndex, Postings};
pub use fork_join::fork_join;
pub use hnsw::{HnswConfig, HnswIndex};
pub use id_hash::{IdHashMap, IdHasher};
pub use ivf::{recall_at_k, IvfConfig, IvfIndex};
pub use points::MixedPointSet;
pub use quant::{QuantConfig, QuantIndex};

/// Shared fixture for this crate's unit-test modules: `n` random points
/// on one hyperbolic x spherical product manifold. (The integration test
/// in `tests/` keeps its own copy — `pub(crate)` is invisible there.)
#[cfg(test)]
pub(crate) mod test_util {
    use crate::points::MixedPointSet;
    use amcad_manifold::{ProductManifold, SubspaceSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn random_set(n: usize, seed: u64) -> MixedPointSet {
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(3, -1.0), SubspaceSpec::new(3, 1.0)]);
        let mut set = MixedPointSet::new(manifold.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let tangent: Vec<f64> = (0..6).map(|_| rng.gen_range(-0.3..0.3)).collect();
            let w0: f64 = rng.gen_range(0.2..0.8);
            set.push(i as u32, &manifold.exp0(&tangent), &[w0, 1.0 - w0]);
        }
        set
    }
}
