//! The six inverted indices used by online ad retrieval (Section IV-C.1).
//!
//! The paper builds Q2Q, Q2I, I2Q, I2I, Q2A and I2A indices offline with the
//! MNN module and ships them to the serving engine.  [`IndexSet`] holds the
//! six indices; [`IndexBuildInputs`] carries the per-edge-space point sets
//! (queries / items / ads projected into the Q-Q, Q-I, Q-A, I-I and I-A
//! spaces with their precomputed attention weights). Only the ads are
//! distributed: a sharded deployment builds Q2Q / Q2I / I2Q / I2I once and
//! every shard's [`IndexSet`] shares them.

use std::sync::Arc;

use amcad_mnn::{fork_join, IndexBackend, InvertedIndex, MixedPointSet};

use crate::error::RetrievalError;

/// Point sets needed to build all six indices.  Indices that swap key and
/// candidate (Q2I / I2Q) share the same underlying edge space, so queries
/// and items each appear once per space.
///
/// The key-side sets (queries and items) are behind [`Arc`]s because they
/// are *replicated, not partitioned*, by every scale-out mechanism in the
/// serving stack: a sharded build hands every shard the same key sets
/// (only the ads split), and a delta publish never touches them at all.
/// Cloning these inputs — per shard, per delta generation — therefore
/// bumps six reference counts instead of copying six point sets. The
/// ad-side sets stay plain: they are genuinely partitioned by
/// [`crate::shard::shard_inputs`] and mutated in place by the delta
/// append/retire lifecycle.
#[derive(Debug, Clone)]
pub struct IndexBuildInputs {
    /// Queries projected into the Q-Q edge space.
    pub queries_qq: Arc<MixedPointSet>,
    /// Queries projected into the Q-I edge space.
    pub queries_qi: Arc<MixedPointSet>,
    /// Items projected into the Q-I edge space.
    pub items_qi: Arc<MixedPointSet>,
    /// Queries projected into the Q-A edge space.
    pub queries_qa: Arc<MixedPointSet>,
    /// Ads projected into the Q-A edge space.
    pub ads_qa: MixedPointSet,
    /// Items projected into the I-I edge space.
    pub items_ii: Arc<MixedPointSet>,
    /// Items projected into the I-A edge space.
    pub items_ia: Arc<MixedPointSet>,
    /// Ads projected into the I-A edge space.
    pub ads_ia: MixedPointSet,
}

impl IndexBuildInputs {
    /// The eight point sets with their space names, in declaration order.
    pub(crate) fn spaces(&self) -> [(&'static str, &MixedPointSet); 8] {
        [
            ("queries_qq", &*self.queries_qq),
            ("queries_qi", &*self.queries_qi),
            ("items_qi", &*self.items_qi),
            ("queries_qa", &*self.queries_qa),
            ("ads_qa", &self.ads_qa),
            ("items_ii", &*self.items_ii),
            ("items_ia", &*self.items_ia),
            ("ads_ia", &self.ads_ia),
        ]
    }

    /// Whether the six key-side sets are `other`'s, pointer-identically —
    /// what a shard split, a delta and a snapshot reload all preserve.
    pub(crate) fn shares_key_side_with(&self, other: &IndexBuildInputs) -> bool {
        Arc::ptr_eq(&self.queries_qq, &other.queries_qq)
            && Arc::ptr_eq(&self.queries_qi, &other.queries_qi)
            && Arc::ptr_eq(&self.items_qi, &other.items_qi)
            && Arc::ptr_eq(&self.queries_qa, &other.queries_qa)
            && Arc::ptr_eq(&self.items_ii, &other.items_ii)
            && Arc::ptr_eq(&self.items_ia, &other.items_ia)
    }

    /// Reject inputs that would corrupt index construction: a duplicate
    /// id within any point set silently overwrites that key's posting
    /// list (and duplicates candidate postings), and would corrupt delta
    /// merges downstream. Surfaced as [`RetrievalError::DuplicateId`].
    pub fn validate(&self) -> Result<(), RetrievalError> {
        for (space, set) in self.spaces() {
            if let Some(id) = set.first_duplicate_id() {
                return Err(RetrievalError::DuplicateId { space, id });
            }
        }
        Ok(())
    }
}

/// Configuration of offline index construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexBuildConfig {
    /// Posting-list length (nearest K kept per key).
    pub top_k: usize,
    /// Worker threads for backends with a parallel bulk path.
    pub threads: usize,
    /// ANN backend used to build every index (exact scan, IVF, HNSW or
    /// quantised postings).
    pub backend: IndexBackend,
}

impl Default for IndexBuildConfig {
    fn default() -> Self {
        IndexBuildConfig {
            top_k: 20,
            threads: 4,
            backend: IndexBackend::Exact,
        }
    }
}

/// The six inverted indices of the two-layer online retrieval system.
///
/// The four key-side indices (Q2Q, Q2I, I2Q, I2I) contain no ads, so
/// every shard of a deployment holds the same ones and a delta publish
/// carries them across generations untouched — they are behind [`Arc`]s
/// so both are a reference-count bump, not a copy of four inverted
/// indices per shard or per delta (the pointer identity is asserted by
/// the delta test suite). The ad-side indices (Q2A, I2A) are the ones
/// shards partition and deltas rewrite, and stay plain.
#[derive(Debug, Clone)]
pub struct IndexSet {
    /// Query → related queries.
    pub q2q: Arc<InvertedIndex>,
    /// Query → related items.
    pub q2i: Arc<InvertedIndex>,
    /// Item → related queries.
    pub i2q: Arc<InvertedIndex>,
    /// Item → related items.
    pub i2i: Arc<InvertedIndex>,
    /// Query → candidate ads.
    pub q2a: InvertedIndex,
    /// Item → candidate ads.
    pub i2a: InvertedIndex,
}

impl IndexSet {
    /// Build all six indices, one after the other, with the configured ANN
    /// backend (exact multi-threaded MNN scan by default; IVF, HNSW or
    /// quantised postings when selected). Inputs are validated first:
    /// duplicate ids within any point set — which would silently overwrite
    /// posting lists and corrupt delta merges — are rejected as
    /// [`RetrievalError::DuplicateId`].
    pub fn build(
        inputs: &IndexBuildInputs,
        config: IndexBuildConfig,
    ) -> Result<IndexSet, RetrievalError> {
        inputs.validate()?;
        let parts = std::slice::from_ref(inputs);
        let mut built = Self::build_sharing_key_side(parts, config, 1);
        Ok(built.pop().expect("one part in, one index set out"))
    }

    /// A deployment's cold build as one flat list of `4 + 2·parts`
    /// independent index builds: the four key-side indices once, over the
    /// key sets every part of a validated [`crate::shard::shard_inputs`]
    /// split shares, then each part's Q2A and I2A, `width` at a time.
    /// [`fork_join()`] returns the builds in task order, so at any width
    /// every set returned shares one copy of the key side and equals its
    /// part's own [`IndexSet::build`].
    pub(crate) fn build_sharing_key_side(
        parts: &[IndexBuildInputs],
        config: IndexBuildConfig,
        width: usize,
    ) -> Vec<IndexSet> {
        let keys = &parts[0];
        // (keys, candidates, exclude the key itself)
        let mut tasks: Vec<(&MixedPointSet, &MixedPointSet, bool)> = vec![
            (&keys.queries_qq, &keys.queries_qq, true),
            (&keys.queries_qi, &keys.items_qi, false),
            (&keys.items_qi, &keys.queries_qi, false),
            (&keys.items_ii, &keys.items_ii, true),
        ];
        for part in parts {
            tasks.push((&keys.queries_qa, &part.ads_qa, false));
            tasks.push((&keys.items_ia, &part.ads_ia, false));
        }
        let backend = config.backend;
        let task = |t: usize| {
            let (keys, candidates, exclude_same) = tasks[t];
            backend.build_index(keys, candidates, config.top_k, exclude_same, config.threads)
        };
        let mut built = fork_join(width, tasks.len(), task).into_iter();
        let mut next = || built.next().expect("fork_join returns one index per task");
        let key_side = IndexSet {
            q2q: Arc::new(next()),
            q2i: Arc::new(next()),
            i2q: Arc::new(next()),
            i2i: Arc::new(next()),
            q2a: InvertedIndex::default(),
            i2a: InvertedIndex::default(),
        };
        let shard = |_| key_side.with_ad_side(next(), next());
        parts.iter().map(shard).collect()
    }

    /// This set's key side — shared pointer-identically, no index copied —
    /// with those ad-side indices: a shard's next delta generation, or
    /// another shard of the same deployment.
    pub(crate) fn with_ad_side(&self, q2a: InvertedIndex, i2a: InvertedIndex) -> IndexSet {
        IndexSet {
            q2q: Arc::clone(&self.q2q),
            q2i: Arc::clone(&self.q2i),
            i2q: Arc::clone(&self.i2q),
            i2i: Arc::clone(&self.i2i),
            q2a,
            i2a,
        }
    }

    /// Whether the four key-side indices are `other`'s, pointer-identically.
    pub(crate) fn shares_key_side_with(&self, other: &IndexSet) -> bool {
        Arc::ptr_eq(&self.q2q, &other.q2q)
            && Arc::ptr_eq(&self.q2i, &other.q2i)
            && Arc::ptr_eq(&self.i2q, &other.i2q)
            && Arc::ptr_eq(&self.i2i, &other.i2i)
    }

    /// Total number of posting lists across the six indices.
    pub fn total_keys(&self) -> usize {
        self.q2q.len()
            + self.q2i.len()
            + self.i2q.len()
            + self.i2i.len()
            + self.q2a.len()
            + self.i2a.len()
    }

    /// Total number of postings across the six indices.
    pub fn total_postings(&self) -> usize {
        [
            &*self.q2q, &*self.q2i, &*self.i2q, &*self.i2i, &self.q2a, &self.i2a,
        ]
        .iter()
        .map(|idx| idx.iter().map(|(_, p)| p.len()).sum::<usize>())
        .sum()
    }

    /// Mean recall@`k` of this set's ad-side posting lists (Q2A and I2A)
    /// against a reference set's — the quality axis of the approximate
    /// backends' recall/latency frontier. An exact-backend set scores 1.0
    /// against itself; approximate backends trade this number for build
    /// (IVF, HNSW) and — via `ef_search` / `nprobe` — search work. Keys
    /// are weighted equally across both indices.
    pub fn ad_recall_against(&self, reference: &IndexSet, k: usize) -> f64 {
        let (qn, inn) = (reference.q2a.len(), reference.i2a.len());
        if qn + inn == 0 {
            return 0.0;
        }
        let q = amcad_mnn::recall_at_k(&self.q2a, &reference.q2a, k);
        let i = amcad_mnn::recall_at_k(&self.i2a, &reference.i2a, k);
        (q * qn as f64 + i * inn as f64) / (qn + inn) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::tiny_inputs;

    #[test]
    fn build_produces_all_six_indices_with_expected_key_counts() {
        let set = IndexSet::build(
            &tiny_inputs(),
            IndexBuildConfig {
                top_k: 5,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(set.q2q.len(), 10);
        assert_eq!(set.q2i.len(), 10);
        assert_eq!(set.i2q.len(), 40);
        assert_eq!(set.i2i.len(), 40);
        assert_eq!(set.q2a.len(), 10);
        assert_eq!(set.i2a.len(), 40);
        assert_eq!(set.total_keys(), 150);
        assert!(set.total_postings() > 0);
    }

    #[test]
    fn self_indices_exclude_the_key_itself() {
        let set = IndexSet::build(
            &tiny_inputs(),
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for (key, postings) in set.q2q.iter() {
            assert!(postings.iter().all(|(c, _)| c != key));
        }
        for (key, postings) in set.i2i.iter() {
            assert!(postings.iter().all(|(c, _)| c != key));
        }
    }

    #[test]
    fn ivf_backend_builds_all_six_indices_and_full_probe_matches_exact() {
        use amcad_mnn::IvfConfig;
        let inputs = tiny_inputs();
        let exact = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let ivf = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                backend: IndexBackend::Ivf(IvfConfig {
                    num_clusters: 4,
                    kmeans_iters: 4,
                    nprobe: 4, // probe everything: must match the exact scan
                    seed: 7,
                }),
            },
        )
        .unwrap();
        assert_eq!(exact.total_keys(), ivf.total_keys());
        for (key, postings) in exact.q2a.iter() {
            let other = ivf.q2a.get(*key).unwrap();
            let ids = |p: &amcad_mnn::Postings| p.iter().map(|(id, _)| *id).collect::<Vec<_>>();
            assert_eq!(ids(postings), ids(other));
        }
    }

    #[test]
    fn hnsw_backend_builds_all_six_indices_and_saturated_matches_exact() {
        use amcad_mnn::HnswConfig;
        let inputs = tiny_inputs();
        let exact = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let hnsw = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                // saturate beyond the largest candidate set (40 items)
                backend: IndexBackend::Hnsw(HnswConfig::saturated(64)),
            },
        )
        .unwrap();
        assert_eq!(exact.total_keys(), hnsw.total_keys());
        for (key, postings) in exact.q2a.iter() {
            assert_eq!(hnsw.q2a.get(*key), Some(postings));
        }
        for (key, postings) in exact.i2i.iter() {
            assert_eq!(hnsw.i2i.get(*key), Some(postings));
        }
        // saturated ad-side recall is exactly 1; exact against itself too
        assert!((hnsw.ad_recall_against(&exact, 5) - 1.0).abs() < 1e-12);
        assert!((exact.ad_recall_against(&exact, 5) - 1.0).abs() < 1e-12);
        // a narrow-beam build is a genuine approximation but stays usable
        let narrow = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                backend: IndexBackend::Hnsw(HnswConfig {
                    m: 4,
                    ef_construction: 8,
                    ef_search: 6,
                    seed: 3,
                }),
            },
        )
        .unwrap();
        let recall = narrow.ad_recall_against(&exact, 5);
        assert!((0.0..=1.0 + 1e-12).contains(&recall));
    }

    #[test]
    fn quant_backend_builds_all_six_indices_and_corpus_wide_rerank_matches_exact() {
        use amcad_mnn::QuantConfig;
        let inputs = tiny_inputs();
        let exact = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                backend: IndexBackend::Quant(QuantConfig {
                    ksub: 8,
                    train_iters: 4,
                    // rerank beyond the largest candidate set (40 items):
                    // every posting list must match the exact scan
                    rerank_k: 64,
                    seed: 7,
                }),
            },
        )
        .unwrap();
        assert_eq!(exact.total_keys(), quant.total_keys());
        for (key, postings) in exact.q2a.iter() {
            assert_eq!(quant.q2a.get(*key), Some(postings));
        }
        for (key, postings) in exact.i2i.iter() {
            assert_eq!(quant.i2i.get(*key), Some(postings));
        }
        assert!((quant.ad_recall_against(&exact, 5) - 1.0).abs() < 1e-12);
        // a partial rerank is a genuine approximation but stays usable
        let partial = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                backend: IndexBackend::Quant(QuantConfig {
                    ksub: 8,
                    train_iters: 4,
                    rerank_k: 12,
                    seed: 3,
                }),
            },
        )
        .unwrap();
        let recall = partial.ad_recall_against(&exact, 5);
        assert!((0.0..=1.0 + 1e-12).contains(&recall));
    }

    #[test]
    fn duplicate_ids_in_any_input_space_are_rejected_with_a_typed_error() {
        // a duplicate ad id would corrupt postings merges (and delta
        // merges): the build must fail fast, naming the space and the id
        let mut inputs = tiny_inputs();
        let i = inputs.ads_qa.index_of(205).unwrap();
        let (point, weight) = (
            inputs.ads_qa.point(i).to_vec(),
            inputs.ads_qa.weight(i).to_vec(),
        );
        inputs.ads_qa.push(205, &point, &weight);
        assert_eq!(
            IndexSet::build(&inputs, IndexBuildConfig::default()).unwrap_err(),
            RetrievalError::DuplicateId {
                space: "ads_qa",
                id: 205
            }
        );
        // a duplicate key id silently overwrites a posting list — equally
        // rejected, in whichever space it appears (key-side sets are
        // shared, so the corruption is written through make_mut)
        let mut inputs = tiny_inputs();
        let i = inputs.queries_qq.index_of(3).unwrap();
        let (point, weight) = (
            inputs.queries_qq.point(i).to_vec(),
            inputs.queries_qq.weight(i).to_vec(),
        );
        Arc::make_mut(&mut inputs.queries_qq).push(3, &point, &weight);
        assert_eq!(
            IndexSet::build(&inputs, IndexBuildConfig::default()).unwrap_err(),
            RetrievalError::DuplicateId {
                space: "queries_qq",
                id: 3
            }
        );
        // clean inputs still build
        assert!(IndexSet::build(&tiny_inputs(), IndexBuildConfig::default()).is_ok());
    }

    #[test]
    fn cross_indices_point_at_the_candidate_id_range() {
        let set = IndexSet::build(
            &tiny_inputs(),
            IndexBuildConfig {
                top_k: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for (_, postings) in set.q2a.iter() {
            assert!(postings.iter().all(|(c, _)| (200..220).contains(c)));
        }
        for (_, postings) in set.q2i.iter() {
            assert!(postings.iter().all(|(c, _)| (100..140).contains(c)));
        }
    }
}
