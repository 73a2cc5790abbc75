//! The quantised-postings backend: asymmetric table scan + exact rerank.
//!
//! Classic product quantisation assumes a Euclidean (or inner-product)
//! metric; the paper's attention-weighted mixed-curvature similarity is
//! neither, which is why the paper falls back to a parallel exact scan.
//! [`QuantIndex`] adapts PQ to the mixed-curvature metric instead:
//!
//! 1. **Train** one sub-codebook per curvature component in that
//!    component's tangent space ([`Codebook`]), where k-means is sound.
//! 2. **Encode** every ad as one `u8` sub-centroid code plus one `f32`
//!    attention weight per component ([`CodeBlocks`]) — the full-precision
//!    point is only needed again at rerank time.
//! 3. **Search** asymmetrically: the query stays full precision; its
//!    geodesic distance to every sub-centroid *reconstruction* (the
//!    centroid mapped back through `exp0`) is tabulated once per query via
//!    the same Gram-form kernel the exact scan uses, the code lanes are
//!    swept with table lookups, and the best `rerank_k` candidates are
//!    reranked with exact distances through the SoA kernel.
//!
//! Because the rerank reuses the exact kernel and `TopK` contract, a
//! corpus-wide rerank (`rerank_k >= n`) is *bit-identical* to
//! [`crate::ExactBackend`] — the saturation point the parity suite pins,
//! mirroring full-probe IVF and saturated HNSW.

use amcad_manifold::{distance_gram, dot, norm_sq, ProductManifold};

use crate::backend::AnnIndex;
use crate::brute::{Postings, TopK};
use crate::points::MixedPointSet;
use crate::quant::codebook::Codebook;
use crate::quant::codes::{AsymmetricTable, CodeBlocks};
use crate::quant::soa::SCAN_CHUNK;

/// Configuration of the quantised-postings index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Sub-centroids per component codebook (capped at 256 — codes are one
    /// byte).
    pub ksub: usize,
    /// Lloyd iterations for each tangent-space sub-codebook.
    pub train_iters: usize,
    /// Candidates kept from the approximate table scan and reranked with
    /// exact distances. At or above the corpus size the backend is
    /// bit-identical to the exact scan.
    pub rerank_k: usize,
    /// RNG seed for codebook initialisation (offset per component).
    pub seed: u64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            ksub: 16,
            train_iters: 8,
            rerank_k: 48,
            seed: 13,
        }
    }
}

/// A quantised-postings index over a candidate point set.
#[derive(Debug, Clone)]
pub struct QuantIndex {
    candidates: MixedPointSet,
    config: QuantConfig,
    codebooks: Vec<Codebook>,
    /// Per-component flat `len_m × dim_m` centroid reconstructions
    /// (`exp0` of each tangent centroid), derived from the codebooks.
    recons: Vec<Vec<f64>>,
    /// Per-component squared norms of the reconstructions.
    recon_sq_norms: Vec<Vec<f64>>,
    codes: CodeBlocks,
}

/// Per-component training seed: decorrelates the sub-codebooks while
/// keeping every one a pure function of the configured seed.
fn component_seed(seed: u64, m: usize) -> u64 {
    seed.wrapping_add((m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Train one sub-codebook per component over the tangent vectors.
fn train_codebooks(
    manifold: &ProductManifold,
    tangents: &[Vec<f64>],
    config: QuantConfig,
) -> Vec<Codebook> {
    let mut codebooks = Vec::with_capacity(manifold.num_subspaces());
    for m in 0..manifold.num_subspaces() {
        let range = manifold.range(m);
        let dim = range.len();
        let mut data = Vec::with_capacity(tangents.len() * dim);
        for t in tangents {
            data.extend_from_slice(&t[range.clone()]);
        }
        codebooks.push(Codebook::train(
            &data,
            dim,
            config.ksub,
            config.train_iters,
            component_seed(config.seed, m),
        ));
    }
    codebooks
}

/// Map every centroid back onto the manifold (`exp0` per component) and
/// precompute the reconstructions' squared norms for the Gram-form table
/// build.
fn derive_recons(
    manifold: &ProductManifold,
    codebooks: &[Codebook],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut recons = Vec::with_capacity(codebooks.len());
    let mut sq_norms = Vec::with_capacity(codebooks.len());
    for (m, cb) in codebooks.iter().enumerate() {
        let kappa = manifold.subspaces()[m].kappa;
        let mut flat = Vec::with_capacity(cb.len() * cb.dim());
        let mut sq = Vec::with_capacity(cb.len());
        for c in 0..cb.len() {
            let recon = amcad_manifold::exp_map_origin(cb.centroid(c), kappa);
            sq.push(norm_sq(&recon));
            flat.extend_from_slice(&recon);
        }
        recons.push(flat);
        sq_norms.push(sq);
    }
    (recons, sq_norms)
}

impl QuantIndex {
    /// Build a quantised index over the candidate set: train the
    /// sub-codebooks, then encode every candidate. An empty candidate set
    /// leaves the codebooks untrained (and every search empty).
    pub fn build(candidates: MixedPointSet, config: QuantConfig) -> Self {
        let manifold = candidates.manifold().clone();
        let tangents: Vec<Vec<f64>> = (0..candidates.len())
            .map(|i| manifold.log0(candidates.point(i)))
            .collect();
        let codebooks = train_codebooks(&manifold, &tangents, config);
        let (recons, recon_sq_norms) = derive_recons(&manifold, &codebooks);
        let mut codes = CodeBlocks::new(manifold.num_subspaces());
        let mut point_codes = vec![0u8; manifold.num_subspaces()];
        for (i, t) in tangents.iter().enumerate() {
            for (m, code) in point_codes.iter_mut().enumerate() {
                *code = codebooks[m].encode(&t[manifold.range(m)]);
            }
            codes.push(&point_codes, candidates.weight(i));
        }
        QuantIndex {
            candidates,
            config,
            codebooks,
            recons,
            recon_sq_norms,
            codes,
        }
    }

    /// Number of indexed candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &QuantConfig {
        &self.config
    }

    /// The per-component sub-codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// The quantised posting lanes.
    pub fn codes(&self) -> &CodeBlocks {
        &self.codes
    }

    /// The indexed candidate set.
    pub fn candidates(&self) -> &MixedPointSet {
        &self.candidates
    }

    /// Bytes one ad's *quantised* posting occupies: one `u8` code plus one
    /// `f32` weight per curvature component.
    pub fn quantised_bytes_per_ad(&self) -> usize {
        self.codes.bytes_per_point()
    }

    /// Bytes one ad occupies at full precision: `f64` coordinates over the
    /// whole product manifold plus one `f64` attention weight per
    /// component — what the scan side of every other backend stores.
    pub fn full_precision_bytes_per_ad(&self) -> usize {
        let manifold = self.candidates.manifold();
        std::mem::size_of::<f64>() * (manifold.total_dim() + manifold.num_subspaces())
    }

    /// Build the per-query asymmetric distance table: the query's geodesic
    /// distance to every sub-centroid reconstruction, through the same
    /// Gram-form kernel the exact scan uses. One flat allocation per query.
    fn distance_table(&self, query: &[f64]) -> AsymmetricTable {
        let mcount = self.codebooks.len();
        let manifold = self.candidates.manifold();
        let mut offsets = vec![0usize; mcount + 1];
        for m in 0..mcount {
            offsets[m + 1] = offsets[m] + self.codebooks[m].len();
        }
        let mut entries = vec![0.0f64; offsets[mcount]];
        for m in 0..mcount {
            let qm = manifold.component(query, m);
            let q2 = norm_sq(qm);
            let kappa = manifold.subspaces()[m].kappa;
            let dim = self.codebooks[m].dim();
            for (c, entry) in entries[offsets[m]..offsets[m + 1]].iter_mut().enumerate() {
                let recon = &self.recons[m][c * dim..(c + 1) * dim];
                *entry = distance_gram(q2, self.recon_sq_norms[m][c], dot(qm, recon), kappa);
            }
        }
        AsymmetricTable::from_parts(entries, offsets)
    }

    /// Approximate top-K search: chunked asymmetric table scan over the
    /// code lanes keeping the best `rerank_k` (at least `k`) candidates,
    /// then an exact rerank of that pool through the SoA kernel. Sorted by
    /// increasing *exact* distance with the shared `(distance, id)`
    /// tie-break.
    pub fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings {
        if self.candidates.is_empty() || k == 0 {
            return Vec::new();
        }
        let n = self.candidates.len();
        let table = self.distance_table(query);

        // stage 1: approximate scan — pool entries are (approx distance,
        // slot); the slot tie-break only matters below the rerank horizon
        // neither list holds more than the n candidates offered
        let pool_size = self.config.rerank_k.max(k).min(n);
        let mut pool = TopK::new(pool_size);
        let mut lane = [0.0f64; SCAN_CHUNK];
        let mut start = 0;
        while start < n {
            let len = SCAN_CHUNK.min(n - start);
            self.codes
                .scan_range_into(&table, query_weight, start, &mut lane[..len]);
            for (jj, &approx) in lane[..len].iter().enumerate() {
                let slot = start + jj;
                if exclude_id == Some(self.candidates.id(slot)) {
                    continue;
                }
                pool.offer(approx, slot as u32);
            }
            start += len;
        }

        // stage 2: exact rerank of the surviving pool
        let slots: Vec<usize> = pool
            .into_sorted()
            .iter()
            .map(|&(slot, _)| slot as usize)
            .collect();
        let blocks = self.candidates.blocks();
        let grams = blocks.query_grams(query);
        let mut exact = vec![0.0f64; slots.len()];
        blocks.scan_indices_into(&grams, query, query_weight, &slots, &mut exact);
        let mut topk = TopK::new(k.min(slots.len()));
        for (jj, &slot) in slots.iter().enumerate() {
            topk.offer(exact[jj], self.candidates.id(slot));
        }
        topk.into_sorted()
    }
}

impl AnnIndex for QuantIndex {
    fn backend_name(&self) -> &'static str {
        "quant"
    }

    fn len(&self) -> usize {
        QuantIndex::len(self)
    }

    fn search(
        &self,
        query: &[f64],
        query_weight: &[f64],
        k: usize,
        exclude_id: Option<u32>,
    ) -> Postings {
        QuantIndex::search(self, query, query_weight, k, exclude_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::build_exact_index;
    use crate::ivf::recall_at_k;
    use crate::test_util::random_set;
    use amcad_manifold::SubspaceSpec;

    #[test]
    fn corpus_wide_rerank_is_bit_identical_to_the_exact_scan() {
        let cands = random_set(80, 1);
        let keys = random_set(15, 2);
        let quant = QuantIndex::build(
            cands.clone(),
            QuantConfig {
                ksub: 8,
                train_iters: 4,
                rerank_k: 80, // the whole corpus survives to the rerank
                seed: 3,
            },
        );
        let exact = crate::ExactBackend::new(cands, 1);
        for i in 0..keys.len() {
            for exclude in [None, Some(keys.id(i))] {
                let (point, weight) = (keys.point(i), keys.weight(i));
                let got = quant.search(point, weight, 6, exclude);
                let want = exact.search(point, weight, 6, exclude);
                assert_eq!(got, want, "key {i}, exclude {exclude:?}");
            }
        }
    }

    #[test]
    fn a_partial_rerank_still_recovers_most_neighbours() {
        let cands = random_set(200, 4);
        let keys = random_set(30, 5);
        let exact = build_exact_index(&keys, &cands, 10, false, 1);
        let quant = QuantIndex::build(
            cands,
            QuantConfig {
                ksub: 16,
                train_iters: 6,
                rerank_k: 40,
                seed: 6,
            },
        );
        let approx = quant.build_index(&keys, 10, false);
        let recall = recall_at_k(&approx, &exact, 10);
        assert!(
            recall > 0.5,
            "rerank_k=40/200 should recover most neighbours, got {recall}"
        );
        assert!(recall <= 1.0 + 1e-12);
    }

    #[test]
    fn quantised_postings_are_at_least_four_times_smaller() {
        let quant = QuantIndex::build(random_set(30, 16), QuantConfig::default());
        let quantised = quant.quantised_bytes_per_ad();
        let full = quant.full_precision_bytes_per_ad();
        assert_eq!(quantised, 2 * 5, "u8 code + f32 weight per component");
        assert_eq!(full, 8 * (6 + 2));
        assert!(
            full >= 4 * quantised,
            "quantisation must shrink ads at least 4x ({full} vs {quantised})"
        );
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let manifold = ProductManifold::new(vec![SubspaceSpec::new(2, 0.0)]);
        let empty = MixedPointSet::new(manifold.clone());
        let quant = QuantIndex::build(empty, QuantConfig::default());
        assert!(quant.is_empty());
        assert!(!quant.codebooks()[0].is_trained());
        assert!(quant.search(&[0.0, 0.0], &[1.0], 3, None).is_empty());
        assert!(quant
            .build_index(&MixedPointSet::new(manifold), 3, false)
            .is_empty());
    }

    #[test]
    fn the_index_exposes_the_trait_surface() {
        let backend = QuantIndex::build(random_set(30, 17), QuantConfig::default());
        assert_eq!(backend.backend_name(), "quant");
        assert_eq!(AnnIndex::len(&backend), 30);
        let keys = random_set(8, 18);
        for i in 0..keys.len() {
            assert_eq!(
                AnnIndex::search(&backend, keys.point(i), keys.weight(i), 4, None),
                backend.search(keys.point(i), keys.weight(i), 4, None),
            );
        }
    }
}
