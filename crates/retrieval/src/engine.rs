//! The serving API: the [`Retrieve`] trait and its single-node
//! implementation, [`RetrievalEngine`].
//!
//! Production callers program against the object-safe [`Retrieve`]
//! interface; three implementations cover the deployment ladder:
//!
//! * [`RetrievalEngine`] (this module) — one node holding all six inverted
//!   indices, built through a builder with a pluggable ANN backend,
//! * [`crate::ShardedEngine`] — the same inputs hash-partitioned by ad
//!   across N shards, fanned out per request and merged back into the
//!   globally correct ranking,
//! * [`crate::EngineHandle`] — either of the above behind an atomically
//!   swappable snapshot, so a rebuilt index can be published with zero
//!   downtime while worker threads keep serving.
//!
//! ```no_run
//! use amcad_retrieval::{IndexBuildInputs, Retrieve, RetrievalEngine, Request};
//! use amcad_mnn::{IndexBackend, IvfConfig};
//! # fn inputs() -> IndexBuildInputs { unimplemented!() }
//!
//! let engine = RetrievalEngine::builder()
//!     .backend(IndexBackend::Ivf(IvfConfig::default()))
//!     .top_k(20)
//!     .build(&inputs())?;
//! // `engine` can be used directly or behind `&dyn Retrieve`
//! let serving: &dyn Retrieve = &engine;
//! let response = serving.retrieve(&Request { query: 7, preclick_items: vec![101] })?;
//! println!("{} ads via {:?}", response.ads.len(), response.stats.coverage);
//! # Ok::<(), amcad_retrieval::RetrievalError>(())
//! ```
//!
//! Compared to calling the bare retriever the engine adds: backend
//! selection (exact, IVF, HNSW or quantised postings — any
//! [`amcad_mnn::AnnIndex`]), typed errors instead of silent empty
//! results, a batched [`RetrievalEngine::retrieve_batch`] entry point
//! that deduplicates second-layer index scans across the batch, and
//! per-request [`RetrievalStats`].

use amcad_mnn::IndexBackend;

use crate::error::RetrievalError;
use crate::index_set::{IndexBuildConfig, IndexBuildInputs, IndexSet};
use crate::retriever::{RetrievalConfig, RetrievedAd, TwoLayerRetriever};

/// One online request: the posed query plus recently clicked items.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Request {
    /// Query node id.
    pub query: u32,
    /// Recently clicked item node ids.
    pub preclick_items: Vec<u32>,
}

/// Which retrieval channel covered the request, by precedence over the
/// candidates scanned in the second layer: it answers "would this request
/// be covered without the expansion / pre-click channels?", not which
/// channel's ads won the final ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverageSource {
    /// No channel produced any candidate (surfaced as
    /// [`RetrievalError::NoCoverage`]).
    #[default]
    None,
    /// The raw query's own Q2A posting list contributed candidates (the
    /// final ranking may still be dominated by other channels).
    DirectQuery,
    /// Q2Q / Q2I expansions of the raw query contributed candidates and
    /// the raw query itself did not (pre-click channels may also have
    /// contributed).
    ExpandedKeys,
    /// Only pre-click items (or their expansions) contributed candidates
    /// — the second layer's coverage win for unseen queries.
    PreclickItems,
}

/// One physical serving assignment of a sharded deployment: which replica
/// of which shard answered the fan-out gathers of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId {
    /// Active shard index (shards emptied by the hash split are skipped
    /// at build time and never appear here).
    pub shard: u32,
    /// Replica index within that shard's replica set.
    pub replica: u32,
}

/// Per-request work and provenance counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RetrievalStats {
    /// First-layer keys used (raw query + raw pre-clicks + expansions).
    pub keys_expanded: usize,
    /// Posting-list entries examined across both layers.
    pub postings_scanned: usize,
    /// Channel that covered the request (see [`CoverageSource`] for the
    /// exact attribution semantics).
    pub coverage: CoverageSource,
    /// Physical fan-out route: for every active shard gathered during this
    /// request, the serving replica that answered — one entry per shard,
    /// in shard order. Empty on single-node engines. This is deployment
    /// attribution, not logical work: resharding, replication and failover
    /// all change the route while leaving every other field (and the
    /// ranking) untouched, which is what [`RetrievalStats::logical`]
    /// exists to compare.
    pub served_by: Vec<ReplicaId>,
}

impl RetrievalStats {
    /// The topology-invariant view of the stats: every field except the
    /// physical `served_by` route. Two deployments of the same corpus —
    /// any shard count, any replica count, any dead replicas short of a
    /// whole shard — report identical logical stats for a request; the
    /// parity and failover tests compare through this view.
    pub fn logical(&self) -> RetrievalStats {
        RetrievalStats {
            served_by: Vec::new(),
            ..self.clone()
        }
    }
}

/// A served request: ranked ads plus the stats behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalResponse {
    /// Ranked ads, best first.
    pub ads: Vec<RetrievedAd>,
    /// Work and provenance counters for this request.
    pub stats: RetrievalStats,
}

impl RetrievalResponse {
    /// The topology-invariant view of the response: identical ads, stats
    /// reduced through [`RetrievalStats::logical`]. Pair with
    /// [`crate::RetrievalError::logical`] to compare full served results
    /// across deployment topologies.
    pub fn logical(mut self) -> Self {
        self.stats = self.stats.logical();
        self
    }
}

/// The object-safe serving interface every engine flavour implements:
/// single-node [`RetrievalEngine`], fan-out [`crate::ShardedEngine`], and
/// the hot-swappable [`crate::EngineHandle`] / [`crate::EngineSnapshot`].
///
/// Callers (the serving runtime, benchmark binaries, transport layers)
/// hold `dyn Retrieve` and stay oblivious to the deployment topology
/// behind it. `Send + Sync` is part of the contract: serving fans requests
/// across worker threads.
pub trait Retrieve: Send + Sync {
    /// Serve one request. `Err(NoCoverage)` replaces a silent empty result
    /// when neither the query nor its pre-click context reaches any ad.
    fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError>;

    /// Serve a batch of requests in one call — the entry point for
    /// transport-level batching. Each request gets its own result so
    /// partial coverage failures don't poison the batch. The default
    /// implementation serves request by request; implementations override
    /// it when a batch can be served cheaper than N singles.
    fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        requests.iter().map(|r| self.retrieve(r)).collect()
    }
}

/// The engine: built indices + two-layer logic + the backend that built
/// them.
#[derive(Debug, Clone)]
pub struct RetrievalEngine {
    retriever: TwoLayerRetriever,
    index_config: IndexBuildConfig,
}

/// Builder for [`RetrievalEngine`] — see the module docs for the shape.
#[derive(Debug, Clone, Default)]
pub struct RetrievalEngineBuilder {
    index: IndexBuildConfig,
    retrieval: RetrievalConfig,
}

impl RetrievalEngineBuilder {
    /// Select the ANN backend used to build all six indices.
    pub fn backend(mut self, backend: IndexBackend) -> Self {
        self.index.backend = backend;
        self
    }

    /// Posting-list length kept per key (default 20).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.index.top_k = top_k;
        self
    }

    /// Worker threads for bulk index construction (default 4).
    pub fn threads(mut self, threads: usize) -> Self {
        self.index.threads = threads;
        self
    }

    /// Replace the whole index-construction configuration.
    pub fn index(mut self, index: IndexBuildConfig) -> Self {
        self.index = index;
        self
    }

    /// Replace the two-layer retrieval configuration.
    pub fn retrieval(mut self, retrieval: RetrievalConfig) -> Self {
        self.retrieval = retrieval;
        self
    }

    /// Reject zero-sized index and retrieval knobs. Crate-visible so the
    /// sharded build validates the per-shard configuration once, before
    /// any index work, instead of per shard after it.
    pub(crate) fn validate(&self) -> Result<(), RetrievalError> {
        if self.index.top_k == 0 {
            return Err(RetrievalError::InvalidConfig(
                "index top_k must be positive".into(),
            ));
        }
        if self.index.threads == 0 {
            return Err(RetrievalError::InvalidConfig(
                "index build threads must be positive".into(),
            ));
        }
        if self.retrieval.ads_per_key == 0 || self.retrieval.final_top_n == 0 {
            return Err(RetrievalError::InvalidConfig(
                "ads_per_key and final_top_n must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Build the six indices from the point sets and assemble the engine.
    /// Inputs with duplicate ids are rejected as
    /// [`RetrievalError::DuplicateId`] before any index work happens.
    pub fn build(self, inputs: &IndexBuildInputs) -> Result<RetrievalEngine, RetrievalError> {
        self.validate()?;
        let indexes = IndexSet::build(inputs, self.index)?;
        self.assemble(indexes)
    }

    /// Assemble the engine around already-built indices (used when the
    /// same `IndexSet` is shared between experiments).
    ///
    /// The engine's [`RetrievalEngine::backend`] / `index_config` report
    /// *this builder's* configuration — when the indices were built
    /// elsewhere, set the builder's backend/top_k to match so labels and
    /// stats stay truthful.
    pub fn build_from_indexes(self, indexes: IndexSet) -> Result<RetrievalEngine, RetrievalError> {
        self.validate()?;
        self.assemble(indexes)
    }

    fn assemble(self, indexes: IndexSet) -> Result<RetrievalEngine, RetrievalError> {
        if indexes.q2a.is_empty() && indexes.i2a.is_empty() {
            return Err(RetrievalError::EmptyIndex { indices: "q2a+i2a" });
        }
        Ok(RetrievalEngine {
            retriever: TwoLayerRetriever::new(indexes, self.retrieval),
            index_config: self.index,
        })
    }
}

impl RetrievalEngine {
    /// Start building an engine.
    pub fn builder() -> RetrievalEngineBuilder {
        RetrievalEngineBuilder::default()
    }

    /// The backend the indices were built with.
    pub fn backend(&self) -> IndexBackend {
        self.index_config.backend
    }

    /// The index-construction configuration.
    pub fn index_config(&self) -> &IndexBuildConfig {
        &self.index_config
    }

    /// The two-layer retrieval configuration.
    pub fn config(&self) -> &RetrievalConfig {
        self.retriever.config()
    }

    /// The six inverted indices.
    pub fn indexes(&self) -> &IndexSet {
        self.retriever.indexes()
    }

    /// The bare two-layer retriever — crate-visible so the sharded engine
    /// can run the request loop and read per-shard candidate prefixes.
    pub(crate) fn retriever(&self) -> &TwoLayerRetriever {
        &self.retriever
    }

    /// Serve one request — the batch of one of
    /// [`RetrievalEngine::retrieve_batch`]. `Err(NoCoverage)` replaces the
    /// old silent empty result when neither the query nor its pre-click
    /// context reaches any ad.
    pub fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        self.retrieve_batch(std::slice::from_ref(request))
            .pop()
            .expect("the request loop answers every request")
    }

    /// Serve a batch of requests in one call — the entry point for
    /// transport-level batching (a server that collects requests and
    /// flushes responses together). Second-layer index scans are
    /// deduplicated across the batch: when several requests expand to the
    /// same key, its posting-list prefix is fetched once, so a batch is
    /// measurably cheaper than N single [`RetrievalEngine::retrieve`]
    /// calls. Rankings are identical to the single path; a shared scan is
    /// attributed to the first request that needed it. Each request gets
    /// its own result so partial coverage failures don't poison the batch.
    /// [`crate::ServingRuntime`] workers serve queued neighbours through
    /// this path.
    pub fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        self.retriever.serve_local(requests)
    }

    /// Single-layer baseline (raw query's Q2A only) — kept for coverage
    /// comparisons against the two-layer path.
    pub fn retrieve_single_layer(&self, query: u32) -> Vec<RetrievedAd> {
        self.retriever.retrieve_single_layer(query)
    }
}

impl Retrieve for RetrievalEngine {
    fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        RetrievalEngine::retrieve(self, request)
    }

    fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        RetrievalEngine::retrieve_batch(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::tiny_inputs as inputs;
    use amcad_manifold::{ProductManifold, SubspaceSpec};
    use amcad_mnn::{InvertedIndex, IvfConfig, MixedPointSet};

    #[test]
    fn builder_builds_and_serves_with_the_default_backend() {
        let engine = RetrievalEngine::builder()
            .top_k(8)
            .threads(1)
            .build(&inputs())
            .unwrap();
        assert_eq!(engine.backend(), IndexBackend::Exact);
        let response = engine
            .retrieve(&Request {
                query: 3,
                preclick_items: vec![101, 115],
            })
            .unwrap();
        assert!(!response.ads.is_empty());
        assert!(response.stats.keys_expanded >= 3);
        assert_eq!(response.stats.coverage, CoverageSource::DirectQuery);
    }

    #[test]
    fn a_top_k_past_every_corpus_builds_the_indices_of_the_largest_corpus() {
        // a decoded manifest may carry any top_k up to u32::MAX: posting
        // lists then hold whole corpora, as at top_k = 40 (the item count,
        // the fixture's largest candidate set), and requests serve alike
        let huge = RetrievalEngine::builder()
            .top_k(u32::MAX as usize)
            .threads(2)
            .build(&inputs())
            .unwrap();
        let whole = RetrievalEngine::builder()
            .top_k(40)
            .threads(2)
            .build(&inputs())
            .unwrap();
        let bits = |index: &InvertedIndex| {
            let mut lists: Vec<(u32, Vec<(u32, u64)>)> = index
                .iter()
                .map(|(&key, postings)| {
                    (
                        key,
                        postings.iter().map(|&(id, d)| (id, d.to_bits())).collect(),
                    )
                })
                .collect();
            lists.sort();
            lists
        };
        let (a, b) = (huge.indexes(), whole.indexes());
        for (x, y) in [
            (&*a.q2q, &*b.q2q),
            (&*a.q2i, &*b.q2i),
            (&*a.i2q, &*b.i2q),
            (&*a.i2i, &*b.i2i),
            (&a.q2a, &b.q2a),
            (&a.i2a, &b.i2a),
        ] {
            assert_eq!(bits(x), bits(y));
        }
        let request = Request {
            query: 3,
            preclick_items: vec![101, 115],
        };
        let ads = |engine: &RetrievalEngine| engine.retrieve(&request).unwrap().ads;
        assert_eq!(ads(&huge), ads(&whole));
    }

    #[test]
    fn ivf_backend_threads_through_the_builder() {
        let engine = RetrievalEngine::builder()
            .backend(IndexBackend::Ivf(IvfConfig {
                num_clusters: 4,
                kmeans_iters: 4,
                nprobe: 4,
                seed: 9,
            }))
            .top_k(8)
            .build(&inputs())
            .unwrap();
        assert_eq!(engine.backend().label(), "ivf");
        let response = engine
            .retrieve(&Request {
                query: 1,
                preclick_items: vec![120],
            })
            .unwrap();
        assert!(!response.ads.is_empty());
        assert!(response.ads.iter().all(|a| (200..220).contains(&a.ad)));
    }

    #[test]
    fn full_probe_ivf_engine_serves_the_same_ads_as_exact() {
        let exact = RetrievalEngine::builder()
            .top_k(8)
            .build(&inputs())
            .unwrap();
        let ivf = RetrievalEngine::builder()
            .backend(IndexBackend::Ivf(IvfConfig {
                num_clusters: 6,
                kmeans_iters: 5,
                nprobe: 6,
                seed: 3,
            }))
            .top_k(8)
            .build(&inputs())
            .unwrap();
        for q in 0..10u32 {
            let request = Request {
                query: q,
                preclick_items: vec![100 + q],
            };
            let a = exact.retrieve(&request).unwrap();
            let b = ivf.retrieve(&request).unwrap();
            let ids = |r: &RetrievalResponse| r.ads.iter().map(|a| a.ad).collect::<Vec<_>>();
            assert_eq!(
                ids(&a),
                ids(&b),
                "full probing must match exact for query {q}"
            );
        }
    }

    #[test]
    fn no_coverage_is_a_typed_error_not_an_empty_list() {
        let engine = RetrievalEngine::builder()
            .top_k(8)
            .build(&inputs())
            .unwrap();
        let err = engine
            .retrieve(&Request {
                query: 9999,
                preclick_items: vec![],
            })
            .unwrap_err();
        assert!(
            matches!(err, RetrievalError::NoCoverage { query: 9999, .. }),
            "got {err:?}"
        );
        // the error still reports the work the request performed
        let RetrievalError::NoCoverage { stats, .. } = err else {
            unreachable!()
        };
        assert_eq!(stats.keys_expanded, 1, "only the raw unknown query key");
    }

    #[test]
    fn invalid_configs_fail_at_build_time() {
        assert!(matches!(
            RetrievalEngine::builder().top_k(0).build(&inputs()),
            Err(RetrievalError::InvalidConfig(_))
        ));
        assert!(matches!(
            RetrievalEngine::builder().threads(0).build(&inputs()),
            Err(RetrievalError::InvalidConfig(_))
        ));
        let bad_retrieval = RetrievalConfig {
            final_top_n: 0,
            ..Default::default()
        };
        assert!(matches!(
            RetrievalEngine::builder()
                .retrieval(bad_retrieval)
                .build(&inputs()),
            Err(RetrievalError::InvalidConfig(_))
        ));
    }

    #[test]
    fn engine_without_any_ad_index_is_rejected_for_every_backend() {
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let empty = MixedPointSet::new(manifold);
        let mut no_ads = inputs();
        no_ads.ads_qa = empty.clone();
        no_ads.ads_ia = empty;
        for backend in [IndexBackend::Exact, IndexBackend::Ivf(IvfConfig::default())] {
            assert_eq!(
                RetrievalEngine::builder()
                    .backend(backend)
                    .build(&no_ads)
                    .unwrap_err(),
                RetrievalError::EmptyIndex { indices: "q2a+i2a" },
                "{} backend must fail fast on empty ad indices",
                backend.label()
            );
        }
    }

    #[test]
    fn duplicate_input_ids_fail_the_engine_build_with_a_typed_error() {
        let mut bad = inputs();
        let i = bad.ads_ia.index_of(210).unwrap();
        let (point, weight) = (bad.ads_ia.point(i).to_vec(), bad.ads_ia.weight(i).to_vec());
        bad.ads_ia.push(210, &point, &weight);
        assert_eq!(
            RetrievalEngine::builder().build(&bad).unwrap_err(),
            RetrievalError::DuplicateId {
                space: "ads_ia",
                id: 210
            }
        );
    }

    #[test]
    fn build_from_indexes_shares_a_prebuilt_index_set() {
        let indexes = IndexSet::build(
            &inputs(),
            IndexBuildConfig {
                top_k: 8,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let engine = RetrievalEngine::builder()
            .top_k(8)
            .build_from_indexes(indexes.clone())
            .unwrap();
        assert_eq!(engine.indexes().total_keys(), indexes.total_keys());
        assert!(engine
            .retrieve(&Request {
                query: 3,
                preclick_items: vec![101],
            })
            .is_ok());
        // an all-empty index set is still rejected through this path
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let empty = MixedPointSet::new(manifold);
        let mut no_ads = inputs();
        no_ads.ads_qa = empty.clone();
        no_ads.ads_ia = empty;
        let empty_set = IndexSet::build(
            &no_ads,
            IndexBuildConfig {
                top_k: 8,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            RetrievalEngine::builder()
                .build_from_indexes(empty_set)
                .unwrap_err(),
            RetrievalError::EmptyIndex { indices: "q2a+i2a" }
        );
    }

    #[test]
    fn batch_results_are_per_request() {
        let engine = RetrievalEngine::builder()
            .top_k(8)
            .build(&inputs())
            .unwrap();
        let requests = vec![
            Request {
                query: 2,
                preclick_items: vec![101],
            },
            Request {
                query: 9999, // uncovered
                preclick_items: vec![],
            },
            Request {
                query: 5,
                preclick_items: vec![],
            },
        ];
        let results = engine.retrieve_batch(&requests);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(RetrievalError::NoCoverage { query: 9999, .. })
        ));
        assert!(results[2].is_ok());
        // batch results match single-request results exactly
        let single = engine.retrieve(&requests[0]).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &single);
    }
}
