//! Pluggable ANN backends behind one trait.
//!
//! The paper's MNN module is one fixed algorithm (a parallel exact scan);
//! this module turns index construction into a seam: [`AnnIndex`] abstracts
//! "a searchable candidate set", [`ExactBackend`] is the multi-threaded
//! brute-force scan, [`IvfIndex`] (the tangent-space IVF quantiser),
//! [`HnswIndex`] (the navigable-small-world graph) and
//! [`QuantIndex`] (quantised postings) implement the trait themselves, and
//! [`IndexBackend`] is the configuration enum callers use to pick one.
//! Everything downstream — `IndexSet`, the retrieval engine, the serving
//! benchmarks — works against the trait, so exact and approximate backends
//! are interchangeable end to end and new backends (quantised postings,
//! sharded scans) only have to implement `AnnIndex`.

use crate::brute::{
    build_exact_index, build_with_layout, scan_top_k, InvertedIndex, Postings, ScanLayout,
    ScanScratch,
};
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::ivf::{IvfConfig, IvfIndex};
use crate::points::MixedPointSet;
use crate::quant::{QuantConfig, QuantIndex};

/// A searchable index over one candidate point set.
///
/// Implementations own their candidates and answer mixed-curvature top-K
/// queries; [`AnnIndex::build_index`] turns a whole key set into an
/// inverted index (backends may override it with a faster bulk path).
pub trait AnnIndex: Send + Sync {
    /// Short backend name for logs and benchmark tables (e.g. `"exact"`).
    fn backend_name(&self) -> &'static str;

    /// Number of indexed candidates.
    fn len(&self) -> usize;

    /// Whether the index holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Top-`k` candidates for one query point (with its attention
    /// weights), sorted by increasing mixed-curvature distance.
    fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings;

    /// Build the full inverted index for a key set: one posting list per
    /// key. The default implementation searches key by key; backends with
    /// a faster bulk path (e.g. the threaded exact scan) override it. No
    /// candidates (or `k == 0`) yields an EMPTY index, not keys with empty
    /// posting lists — downstream emptiness checks rely on that contract.
    fn build_index(&self, keys: &MixedPointSet, k: usize, exclude_same_id: bool) -> InvertedIndex {
        let mut index = InvertedIndex::default();
        if k == 0 || self.is_empty() {
            return index;
        }
        for i in 0..keys.len() {
            let (id, point, weight) = (keys.id(i), keys.point(i), keys.weight(i));
            index.insert(
                id,
                self.search(point, weight, k, exclude_same_id.then_some(id)),
            );
        }
        index
    }
}

/// The exact backend: the paper's parallel brute-force scan behind the
/// [`AnnIndex`] seam, holding its candidates as their scan layout only.
#[derive(Debug, Clone)]
pub struct ExactBackend {
    /// Built once: `search` and `build_index` both run over it.
    layout: ScanLayout,
    threads: usize,
}

impl ExactBackend {
    /// Lay a candidate set out (see [`build_exact_index`]); `threads`
    /// parallelises the layout and bulk index builds.
    pub fn new(candidates: MixedPointSet, threads: usize) -> Self {
        let threads = threads.max(1);
        ExactBackend {
            layout: ScanLayout::new(&candidates, threads),
            threads,
        }
    }
}

impl AnnIndex for ExactBackend {
    fn backend_name(&self) -> &'static str {
        "exact"
    }

    fn len(&self) -> usize {
        self.layout.live()
    }

    fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings {
        if self.layout.live() == 0 || k == 0 {
            return Vec::new();
        }
        let mut scratch = ScanScratch::new(&self.layout);
        let query = (query, query_weight);
        scan_top_k(&self.layout, query, k, exclude_id, None, &mut scratch)
    }

    fn build_index(&self, keys: &MixedPointSet, k: usize, exclude_same_id: bool) -> InvertedIndex {
        build_with_layout(keys, &self.layout, k, exclude_same_id, self.threads)
    }
}

impl AnnIndex for IvfIndex {
    fn backend_name(&self) -> &'static str {
        "ivf"
    }

    fn len(&self) -> usize {
        IvfIndex::len(self)
    }

    fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings {
        IvfIndex::search(self, query, query_weight, k, exclude_id)
    }
}

impl AnnIndex for HnswIndex {
    fn backend_name(&self) -> &'static str {
        "hnsw"
    }

    fn len(&self) -> usize {
        HnswIndex::len(self)
    }

    fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings {
        HnswIndex::search(self, query, query_weight, k, exclude_id)
    }
}

/// Backend selection carried by index-build configurations.
///
/// The enum is the *configuration* surface (plain data, `Copy`); the
/// [`AnnIndex`] trait is the *implementation* seam. A new backend plugs in
/// by implementing `AnnIndex` and adding one variant here wired through
/// [`IndexBackend::instantiate`] — every downstream consumer
/// (`IndexSet::build`, the retrieval engine, benches) dispatches through
/// these two entry points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexBackend {
    /// Exact multi-threaded scan (the paper's MNN module).
    #[default]
    Exact,
    /// Approximate inverted-file search with the given configuration.
    Ivf(IvfConfig),
    /// Approximate hierarchical navigable-small-world graph search with
    /// the given configuration.
    Hnsw(HnswConfig),
    /// Quantised postings: per-component sub-codebooks, asymmetric table
    /// scan over one-byte codes (built and dropped with the index, never
    /// resident on a serving replica) and exact top-`rerank_k` rerank.
    Quant(QuantConfig),
}

impl IndexBackend {
    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            IndexBackend::Exact => "exact",
            IndexBackend::Ivf(_) => "ivf",
            IndexBackend::Hnsw(_) => "hnsw",
            IndexBackend::Quant(_) => "quant",
        }
    }

    /// Instantiate the backend over a candidate set. `threads` only
    /// affects backends with a parallel bulk path (currently the exact
    /// scan).
    pub fn instantiate(&self, candidates: MixedPointSet, threads: usize) -> Box<dyn AnnIndex> {
        match *self {
            IndexBackend::Exact => Box::new(ExactBackend::new(candidates, threads)),
            IndexBackend::Ivf(config) => Box::new(IvfIndex::build(candidates, config)),
            IndexBackend::Hnsw(config) => Box::new(HnswIndex::build(candidates, config)),
            IndexBackend::Quant(config) => Box::new(QuantIndex::build(candidates, config)),
        }
    }

    /// Bulk inverted-index construction without a long-lived backend: the
    /// exact scan borrows the candidate set directly; IVF clones it into
    /// the clustering structures it genuinely owns. Offline builders
    /// (e.g. `IndexSet::build`) use this to avoid copying every candidate
    /// set just to drop the backend again.
    pub fn build_index(
        &self,
        keys: &MixedPointSet,
        candidates: &MixedPointSet,
        k: usize,
        exclude_same_id: bool,
        threads: usize,
    ) -> InvertedIndex {
        match *self {
            // the exact scan has a borrowing bulk path (no clone)
            IndexBackend::Exact => {
                build_exact_index(keys, candidates, k, exclude_same_id, threads.max(1))
            }
            // everything else goes through the trait object
            _ => {
                self.instantiate(candidates.clone(), threads)
                    .build_index(keys, k, exclude_same_id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_set;
    use amcad_manifold::{ProductManifold, SubspaceSpec};

    #[test]
    fn exact_backend_matches_the_brute_force_builder() {
        let keys = random_set(25, 1);
        let cands = random_set(60, 2);
        let reference = build_exact_index(&keys, &cands, 6, false, 1);
        let backend = ExactBackend::new(cands, 2);
        let via_trait = backend.build_index(&keys, 6, false);
        assert_eq!(via_trait.len(), reference.len());
        for (key, postings) in reference.iter() {
            let got = via_trait.get(*key).unwrap();
            assert_eq!(postings.len(), got.len());
            for (a, b) in postings.iter().zip(got) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exact_backend_per_query_search_agrees_with_bulk_build() {
        let keys = random_set(10, 3);
        let cands = random_set(40, 4);
        let backend = ExactBackend::new(cands, 1);
        let bulk = backend.build_index(&keys, 5, true);
        for i in 0..keys.len() {
            let id = keys.id(i);
            let single = backend.search(keys.point(i), keys.weight(i), 5, Some(id));
            assert_eq!(bulk.get(id).unwrap(), &single);
        }
    }

    #[test]
    fn backend_enum_instantiates_every_backend() {
        let cands = random_set(30, 5);
        let exact = IndexBackend::Exact.instantiate(cands.clone(), 2);
        assert_eq!(exact.backend_name(), "exact");
        assert_eq!(exact.len(), 30);
        let ivf = IndexBackend::Ivf(IvfConfig::default()).instantiate(cands.clone(), 1);
        assert_eq!(ivf.backend_name(), "ivf");
        assert_eq!(ivf.len(), 30);
        assert!(!ivf.is_empty());
        let hnsw = IndexBackend::Hnsw(HnswConfig::default()).instantiate(cands.clone(), 1);
        assert_eq!(hnsw.backend_name(), "hnsw");
        assert_eq!(hnsw.len(), 30);
        let quant = IndexBackend::Quant(QuantConfig::default()).instantiate(cands, 1);
        assert_eq!(quant.backend_name(), "quant");
        assert_eq!(quant.len(), 30);
        assert_eq!(IndexBackend::default(), IndexBackend::Exact);
        assert_eq!(IndexBackend::Hnsw(HnswConfig::default()).label(), "hnsw");
        assert_eq!(IndexBackend::Quant(QuantConfig::default()).label(), "quant");
    }

    #[test]
    fn bulk_build_index_matches_the_instantiated_backend() {
        let keys = random_set(12, 8);
        let cands = random_set(40, 9);
        for backend in [
            IndexBackend::Exact,
            IndexBackend::Ivf(IvfConfig::default()),
            IndexBackend::Hnsw(HnswConfig::default()),
            IndexBackend::Quant(QuantConfig::default()),
        ] {
            let direct = backend.build_index(&keys, &cands, 5, false, 2);
            let via_trait = backend
                .instantiate(cands.clone(), 2)
                .build_index(&keys, 5, false);
            assert_eq!(direct.len(), via_trait.len());
            for (key, postings) in direct.iter() {
                assert_eq!(postings, via_trait.get(*key).unwrap());
            }
        }
    }

    #[test]
    fn empty_candidates_yield_empty_results_through_the_trait() {
        let manifold = ProductManifold::new(vec![SubspaceSpec::new(2, 0.0)]);
        let empty = MixedPointSet::new(manifold.clone());
        for backend in [
            IndexBackend::Exact.instantiate(empty.clone(), 1),
            IndexBackend::Ivf(IvfConfig::default()).instantiate(empty.clone(), 1),
            IndexBackend::Hnsw(HnswConfig::default()).instantiate(empty.clone(), 1),
            IndexBackend::Quant(QuantConfig::default()).instantiate(empty.clone(), 1),
        ] {
            assert!(backend.is_empty());
            assert!(backend.search(&[0.0, 0.0], &[1.0], 3, None).is_empty());
            assert!(backend.build_index(&empty, 3, false).is_empty());
        }
    }

    #[test]
    fn zero_k_short_circuits() {
        let keys = random_set(5, 6);
        let cands = random_set(10, 7);
        let backend = ExactBackend::new(cands, 1);
        assert!(backend
            .search(keys.point(0), keys.weight(0), 0, None)
            .is_empty());
        assert!(backend.build_index(&keys, 0, false).is_empty());
    }
}
