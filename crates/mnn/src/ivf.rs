//! IVF-style approximate nearest-neighbour search in mixed-curvature space.
//!
//! Traditional quantisation-based ANN (e.g. product quantisation) assumes a
//! dot-product or Euclidean metric; the paper notes that the attention-based
//! mixed-curvature similarity "is more complex and hard to directly use
//! traditional nearest neighbor search approaches" and therefore
//! parallelises an exact scan.  This module adds the natural middle ground:
//! a coarse inverted-file (IVF) quantiser built in the *shared tangent
//! space* (where the metric is Euclidean), with the exact mixed-curvature
//! distance applied only inside the probed clusters.  The benchmark harness
//! measures its recall against the exact index.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::brute::{InvertedIndex, Postings, TopK};
use crate::points::MixedPointSet;

/// Configuration of the IVF index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfConfig {
    /// Number of coarse clusters.
    pub num_clusters: usize,
    /// Lloyd iterations for the tangent-space k-means.
    pub kmeans_iters: usize,
    /// Clusters probed per query.
    pub nprobe: usize,
    /// RNG seed for centroid initialisation.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            num_clusters: 16,
            kmeans_iters: 8,
            nprobe: 4,
            seed: 11,
        }
    }
}

/// An IVF index over a candidate point set.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    candidates: MixedPointSet,
    /// Tangent-space (log-mapped) coordinates of every candidate.
    tangents: Vec<Vec<f64>>,
    centroids: Vec<Vec<f64>>,
    clusters: Vec<Vec<usize>>,
    config: IvfConfig,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl IvfIndex {
    /// Build an IVF index over the candidate set.
    pub fn build(candidates: MixedPointSet, config: IvfConfig) -> Self {
        let n = candidates.len();
        let manifold = candidates.manifold().clone();
        let tangents: Vec<Vec<f64>> = (0..n).map(|i| manifold.log0(candidates.point(i))).collect();

        let k = config.num_clusters.max(1).min(n.max(1));
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroid_seeds: Vec<usize> = (0..n).collect();
        centroid_seeds.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f64>> = centroid_seeds
            .into_iter()
            .take(k)
            .map(|i| tangents[i].clone())
            .collect();

        let mut assignments = vec![0usize; n];
        for _ in 0..config.kmeans_iters.max(1) {
            // assign
            for (i, t) in tangents.iter().enumerate() {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = sq_dist(t, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignments[i] = best;
            }
            // update
            let dim = manifold.total_dim();
            let mut sums = vec![vec![0.0; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, t) in tangents.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(t) {
                    *s += v;
                }
            }
            for (c, centroid) in centroids.iter_mut().enumerate() {
                if counts[c] > 0 {
                    for (ci, s) in centroid.iter_mut().zip(&sums[c]) {
                        *ci = s / counts[c] as f64;
                    }
                }
            }
        }

        let mut clusters = vec![Vec::new(); centroids.len()];
        for (i, &c) in assignments.iter().enumerate() {
            clusters[c].push(i);
        }

        IvfIndex {
            candidates,
            tangents,
            centroids,
            clusters,
            config,
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
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// Number of non-empty clusters (useful for diagnosing degenerate
    /// clusterings).
    pub fn non_empty_clusters(&self) -> usize {
        self.clusters.iter().filter(|c| !c.is_empty()).count()
    }

    /// Approximate top-K search for one query point.
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
        let query_tangent = self.candidates.manifold().log0(query);
        // rank clusters by centroid distance in tangent space
        let mut order: Vec<(f64, usize)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(c, centroid)| {
                let d = sq_dist(&query_tangent, centroid);
                // corrupt (NaN) centroid distances rank last, regardless
                // of NaN sign (total_cmp orders -NaN first)
                (if d.is_nan() { f64::INFINITY } else { d }, c)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        // hoisted per-query scratch: the query's component norms and one
        // distance lane per probed cluster, reused across clusters so the
        // gathered SoA sweep below allocates nothing inside the probe loop
        let blocks = self.candidates.blocks();
        let grams = blocks.query_grams(query);
        let widest = self.clusters.iter().map(Vec::len).max().unwrap_or(0);
        let mut distances: Vec<f64> = Vec::with_capacity(widest);
        // no list holds more than the n candidates offered
        let mut topk = TopK::new(k.min(self.candidates.len()));
        for &(_, c) in order.iter().take(self.config.nprobe.max(1)) {
            let members = &self.clusters[c];
            if members.is_empty() {
                continue;
            }
            distances.resize(members.len(), 0.0);
            blocks.scan_indices_into(&grams, query, query_weight, members, &mut distances);
            for (jj, &j) in members.iter().enumerate() {
                let cand_id = self.candidates.id(j);
                if exclude_id == Some(cand_id) {
                    continue;
                }
                topk.offer(distances[jj], cand_id);
            }
        }
        topk.into_sorted()
    }

    /// Tangent coordinates of candidate `i` (exposed for diagnostics).
    pub fn tangent(&self, i: usize) -> &[f64] {
        &self.tangents[i]
    }
}

/// Recall@K of an approximate index against the exact one: the average
/// fraction of each key's exact top-K that the approximate postings contain.
pub fn recall_at_k(approx: &InvertedIndex, exact: &InvertedIndex, k: usize) -> f64 {
    // summed in ascending key order: the backing map iterates in an order
    // that follows its insertion history and f64 addition is not
    // associative, so a map-order sum of two equal indices built in
    // different orders would agree only to ~1e-15
    let mut entries: Vec<(&u32, &Postings)> = exact.iter().collect();
    entries.sort_unstable_by_key(|&(key, _)| *key);
    let mut total = 0.0;
    let mut count = 0usize;
    for (key, exact_postings) in entries {
        let truth: Vec<u32> = exact_postings.iter().take(k).map(|(id, _)| *id).collect();
        if truth.is_empty() {
            continue;
        }
        let approx_set: std::collections::HashSet<u32> = approx
            .get(*key)
            .map(|p| p.iter().take(k).map(|(id, _)| *id).collect())
            .unwrap_or_default();
        let hit = truth.iter().filter(|id| approx_set.contains(id)).count();
        total += hit as f64 / truth.len() as f64;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnnIndex;
    use crate::brute::build_exact_index;
    use crate::test_util::random_set;
    use amcad_manifold::{ProductManifold, SubspaceSpec};

    #[test]
    fn probing_all_clusters_reproduces_exact_results() {
        let cands = random_set(60, 1);
        let keys = random_set(15, 2);
        let exact = build_exact_index(&keys, &cands, 5, false, 1);
        let ivf = IvfIndex::build(
            cands,
            IvfConfig {
                num_clusters: 8,
                kmeans_iters: 5,
                nprobe: 8, // probe everything
                seed: 3,
            },
        );
        let approx = ivf.build_index(&keys, 5, false);
        let recall = recall_at_k(&approx, &exact, 5);
        assert!(
            (recall - 1.0).abs() < 1e-12,
            "full probing must be exact, got {recall}"
        );
    }

    #[test]
    fn partial_probing_trades_recall_for_work_but_stays_reasonable() {
        let cands = random_set(200, 4);
        let keys = random_set(30, 5);
        let exact = build_exact_index(&keys, &cands, 10, false, 1);
        let ivf = IvfIndex::build(
            cands,
            IvfConfig {
                num_clusters: 16,
                kmeans_iters: 8,
                nprobe: 4,
                seed: 6,
            },
        );
        let approx = ivf.build_index(&keys, 10, false);
        let recall = recall_at_k(&approx, &exact, 10);
        assert!(
            recall > 0.5,
            "nprobe=4/16 should recover most neighbours, got {recall}"
        );
        assert!(recall <= 1.0 + 1e-12);
    }

    #[test]
    fn self_exclusion_works_through_the_ivf_path() {
        let set = random_set(50, 7);
        let ivf = IvfIndex::build(set.clone(), IvfConfig::default());
        let index = ivf.build_index(&set, 3, true);
        for i in 0..set.len() {
            let id = set.id(i);
            assert!(index.get(id).unwrap().iter().all(|(c, _)| *c != id));
        }
    }

    #[test]
    fn clusters_partition_the_candidates() {
        let set = random_set(80, 8);
        let ivf = IvfIndex::build(set, IvfConfig::default());
        let total: usize = (0..ivf.centroids.len())
            .map(|c| ivf.clusters[c].len())
            .sum();
        assert_eq!(total, ivf.len());
        assert!(ivf.non_empty_clusters() > 1);
    }

    #[test]
    fn recall_of_identical_indices_is_one_and_empty_is_zero() {
        let cands = random_set(30, 9);
        let keys = random_set(10, 10);
        let exact = build_exact_index(&keys, &cands, 5, false, 1);
        assert!((recall_at_k(&exact, &exact, 5) - 1.0).abs() < 1e-12);
        let empty = InvertedIndex::default();
        assert_eq!(recall_at_k(&empty, &exact, 5), 0.0);
        assert_eq!(recall_at_k(&exact, &empty, 5), 0.0);
    }

    #[test]
    fn recall_is_bit_identical_however_the_indices_were_populated() {
        // truth lists of 3 and 7 entries give non-dyadic per-key fractions
        // (thirds, sevenths), so the sum depends on the order of addition
        let postings = |key: u32, len: u32| -> Postings {
            (0..len).map(|j| (key * 10 + j, j as f64)).collect()
        };
        let populate = |keys: &mut dyn Iterator<Item = u32>| {
            let mut exact = InvertedIndex::default();
            let mut approx = InvertedIndex::default();
            for key in keys {
                let len = if key % 2 == 0 { 3 } else { 7 };
                exact.insert(key, postings(key, len));
                approx.insert(key, postings(key, key % (len + 1)));
            }
            (exact, approx)
        };
        let (exact, approx) = populate(&mut (0..400));
        let reference = recall_at_k(&approx, &exact, 7);
        assert!(reference > 0.0 && reference < 1.0);
        // every fresh map hashes (hence iterates) differently, whatever
        // the insertion order
        for round in 0..8 {
            let (exact, approx) = if round % 2 == 0 {
                populate(&mut (0..400).rev())
            } else {
                populate(&mut (0..400))
            };
            assert_eq!(
                recall_at_k(&approx, &exact, 7).to_bits(),
                reference.to_bits(),
                "round {round}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let manifold = ProductManifold::new(vec![SubspaceSpec::new(2, 0.0)]);
        let empty = MixedPointSet::new(manifold.clone());
        let ivf = IvfIndex::build(empty, IvfConfig::default());
        assert!(ivf.is_empty());
        assert!(ivf.search(&[0.0, 0.0], &[1.0], 3, None).is_empty());
    }
}
