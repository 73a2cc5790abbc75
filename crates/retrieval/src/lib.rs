//! # amcad-retrieval
//!
//! The two-layer online advertisement retrieval framework of AMCAD
//! (Section IV-C) behind a sharded, hot-swappable serving API and an
//! admission-controlled serving runtime.
//!
//! ## The serving triad
//!
//! Callers program against the object-safe [`Retrieve`] trait; the three
//! implementations form the deployment ladder of the paper's production
//! cluster:
//!
//! * [`RetrievalEngine`] — one node over the whole corpus: built through a
//!   builder with a pluggable ANN backend, serving single requests and
//!   scan-deduplicated batches with typed errors ([`RetrievalError`]) and
//!   per-request [`RetrievalStats`],
//! * [`ShardedEngine`] — the corpus hash-partitioned **by ad** across N
//!   shards ([`shard::ad_shard`]), the shards built concurrently and
//!   each served by R replicas ([`ReplicatedShard`]: in-process replicas
//!   are health flags over the shard's one shared engine, picked
//!   round-robin over the replicas not administratively marked down,
//!   degrading to the typed [`RetrievalError::ShardUnavailable`] only
//!   when a shard has every replica marked down); requests fan out to
//!   every shard and the per-key candidate prefixes are merged back into
//!   *exactly* the ranking a whole-corpus engine would return, so shard
//!   count, replica count and pool widths are pure deployment knobs
//!   (every response records its physical route in
//!   [`RetrievalStats::served_by`]),
//! * [`EngineHandle`] — either of the above behind an atomically
//!   swappable [`EngineSnapshot`]: [`EngineHandle::publish`] installs a
//!   freshly rebuilt index with one pointer swap while worker threads
//!   keep serving, each response attributable to exactly one snapshot
//!   generation — the zero-downtime index update of Section V-C.
//!
//! Between full rebuilds, **delta publishes** keep the corpus fresh
//! incrementally: [`IndexDelta`] names the ads entering and leaving,
//! [`ShardedDeltaBuilder`] updates only the ad-side
//! indices of only the touched shards (untouched shards reuse their
//! `Arc`'d storage pointer-identically), and
//! [`EngineHandle::publish_delta`] swaps the result in as the next
//! generation. Delta-built rankings are property-tested bit-identical to
//! a from-scratch rebuild of the post-delta corpus — see the [`delta`]
//! module docs for the algorithm and the exactness argument.
//!
//! The whole serving state is also **durable**: the [`store`] module
//! persists a deployment to a versioned, checksummed snapshot file
//! ([`EngineHandle::save_snapshot`]), and a restarted process reloads it
//! ([`EngineHandle::load`]) and catches up by replaying
//! the deltas published after the snapshot's generation — skipping the
//! index rebuild entirely and serving byte-identically to a process
//! that never restarted. See the [`store`] module docs for the
//! save → restart → catch-up lifecycle.
//!
//! Below the triad sit the building blocks: [`IndexSet`] (the six
//! inverted indices Q2Q, Q2I, I2Q, I2I, Q2A, I2A built offline with any
//! [`amcad_mnn::AnnIndex`] backend — exact scan, IVF, HNSW or quantised
//! postings; duplicate
//! input ids are rejected with the typed
//! [`RetrievalError::DuplicateId`]) and [`TwoLayerRetriever`] (the bare
//! layer logic). See `src/README.md` for the backend
//! taxonomy (when to pick which, tuning knobs). The unchanging key side
//! has one owner: a [`ShardedDeltaBuilder`] holds the query / item point
//! sets of its [`IndexBuildInputs`] and the four key-side indices once,
//! and every shard's [`IndexSet`] in every delta generation shares those
//! indices pointer-identically.
//!
//! In front of it all sits the **persistent serving runtime** (the
//! [`runtime`] module). Every resident thread in the crate is one of a
//! [`ServingRuntime`]'s workers, never spawned per request (sharded
//! gathers run inline on the serving worker; cold builds fork/join on
//! scoped threads). The workers park on the runtime's bounded admission
//! queue, the only queue between submit and engine, with per-request
//! deadlines — overload sheds with the typed
//! [`RetrievalError::Overloaded`] instead of queueing without bound,
//! and queued neighbours batch into one scan-deduplicated
//! `retrieve_batch`. Each [`Ticket`] resolves with the instant the
//! worker answered or shed it ([`Ticket::wait_timed`]); the open-loop
//! load driver that measures response time versus offered QPS (Fig. 9)
//! is not part of this crate but a client of [`ServingRuntime::submit`]
//! in `amcad-bench`.
//!
//! ## Serving with shards, replicas and zero-downtime updates
//!
//! ```no_run
//! use amcad_retrieval::{
//!     EngineHandle, Retrieve, Request, RetrievalConfig, ShardedEngine,
//! };
//! use amcad_mnn::IndexBackend;
//! # fn index_inputs() -> amcad_retrieval::IndexBuildInputs { unimplemented!() }
//!
//! // build: ads hash-partitioned across 4 shards (built concurrently on
//! // 4 threads), 2 serving replicas per shard; each request's gather is
//! // inline on the calling thread
//! let sharded = ShardedEngine::builder()
//!     .shards(4)
//!     .replicas(2)
//!     .build_threads(4)
//!     .backend(IndexBackend::Exact)
//!     .top_k(20)
//!     .retrieval(RetrievalConfig::default())
//!     .build(&index_inputs())?;
//!
//! // serve: workers hold the handle, each request pins one snapshot
//! let handle = EngineHandle::new(sharded.clone());
//! let response = handle.retrieve(&Request { query: 42, preclick_items: vec![7, 9] })?;
//! println!("coverage: {:?}, postings scanned: {}, route: {:?}",
//!     response.stats.coverage, response.stats.postings_scanned,
//!     response.stats.served_by);
//!
//! // availability: a lost replica reroutes traffic, rankings unchanged;
//! // only a shard with zero replicas left degrades to a typed error
//! sharded.shard(0).fail_replica(1);
//! assert_eq!(sharded.shard(0).healthy_replicas(), 1);
//!
//! // update: rebuild offline, then swap — zero downtime
//! let rebuilt = ShardedEngine::builder().shards(4).build(&index_inputs())?;
//! let generation = handle.publish(rebuilt);
//! println!("now serving generation {generation}");
//! # Ok::<(), amcad_retrieval::RetrievalError>(())
//! ```
//!
//! ## Incremental freshness: delta publishes between rebuilds
//!
//! ```no_run
//! use amcad_retrieval::{EngineHandle, IndexDelta, ShardedDeltaBuilder, ShardedEngine};
//! # fn index_inputs() -> amcad_retrieval::IndexBuildInputs { unimplemented!() }
//! # fn todays_new_ads() -> (amcad_mnn::MixedPointSet, amcad_mnn::MixedPointSet) { unimplemented!() }
//!
//! let inputs = index_inputs();
//! let mut builder = ShardedDeltaBuilder::new(
//!     &inputs,
//!     ShardedEngine::builder().shards(4).replicas(2),
//! )?;
//! let handle = EngineHandle::new(builder.engine()?);
//!
//! // corpus churn: a few ads in, a few ads out — no O(corpus²) rebuild
//! let (added_qa, added_ia) = todays_new_ads();
//! let delta = IndexDelta {
//!     added_ads_qa: added_qa,
//!     added_ads_ia: added_ia,
//!     retired_ads: vec![1371, 1398],
//! };
//! let generation = handle.publish_delta(&mut builder, &delta)?;
//! println!("generation {generation}: rankings identical to a full rebuild");
//! # Ok::<(), amcad_retrieval::RetrievalError>(())
//! ```

pub mod delta;
pub mod engine;
pub mod error;
pub mod index_set;
pub mod retriever;
pub mod runtime;
pub mod shard;
pub mod snapshot;
pub mod store;

pub use delta::{IndexDelta, ShardedDeltaBuilder};
pub use engine::{
    CoverageSource, ReplicaId, Request, RetrievalEngine, RetrievalEngineBuilder, RetrievalResponse,
    RetrievalStats, Retrieve,
};
pub use error::RetrievalError;
pub use index_set::{IndexBuildConfig, IndexBuildInputs, IndexSet};
pub use retriever::{RetrievalConfig, RetrievedAd, TwoLayerRetriever};
pub use runtime::park_pool::PersistentPool;
pub use runtime::{RuntimeConfig, RuntimeStats, ServingRuntime, Ticket};
pub use shard::{ad_shard, ReplicatedShard, ShardedEngine, ShardedEngineBuilder};
pub use snapshot::{EngineHandle, EngineSnapshot};
pub use store::{SnapshotManifest, FORMAT_VERSION};

/// Shared fixtures for this crate's test modules: one tiny deterministic
/// world (queries 0..10, items 100..140, ads 200..220).
#[cfg(test)]
pub(crate) mod test_fixtures {
    use crate::index_set::IndexBuildInputs;
    use amcad_manifold::{ProductManifold, SubspaceSpec};
    use amcad_mnn::MixedPointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn random_points(ids: std::ops::Range<u32>, seed: u64) -> MixedPointSet {
        let manifold =
            ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let mut set = MixedPointSet::new(manifold.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for id in ids {
            let tangent: Vec<f64> = (0..4).map(|_| rng.gen_range(-0.3..0.3)).collect();
            set.push(id, &manifold.exp0(&tangent), &[0.5, 0.5]);
        }
        set
    }

    /// [`random_points`] wrapped for the shared key-side input fields.
    pub(crate) fn shared_points(
        ids: std::ops::Range<u32>,
        seed: u64,
    ) -> std::sync::Arc<MixedPointSet> {
        std::sync::Arc::new(random_points(ids, seed))
    }

    /// [`tiny_inputs`] minus the ads that hash to shard `adless` of
    /// `shards` — the hash itself spreads the 20 ads over every shard at
    /// counts 2, 4 and 7, so an adless shard has to be arranged.
    pub(crate) fn tiny_inputs_leaving_shard_adless(
        shards: usize,
        adless: usize,
    ) -> IndexBuildInputs {
        let mut inputs = tiny_inputs();
        let stays = |ad| crate::shard::ad_shard(ad, shards) != adless;
        inputs.ads_qa = inputs.ads_qa.filtered(stays);
        inputs.ads_ia = inputs.ads_ia.filtered(stays);
        inputs
    }

    /// Shard `s` of `shards` as inputs of its own: every key set, and the
    /// ads [`crate::shard::ad_shard`] sends to it.
    pub(crate) fn shard_slice(
        inputs: &IndexBuildInputs,
        shards: usize,
        s: usize,
    ) -> IndexBuildInputs {
        let home = |ad| crate::shard::ad_shard(ad, shards) == s;
        IndexBuildInputs {
            ads_qa: inputs.ads_qa.filtered(home),
            ads_ia: inputs.ads_ia.filtered(home),
            ..inputs.clone()
        }
    }

    /// Assert that every serving shard of `builder` runs on the
    /// deployment's one copy of the key-side indices, pointer-identically.
    pub(crate) fn assert_one_key_side(builder: &crate::ShardedDeltaBuilder, when: &str) {
        let keys = &builder.keys().indexes;
        for (s, slot) in builder.slots().iter().enumerate() {
            let Some(indexes) = slot.indexes() else {
                continue;
            };
            for (name, got, want) in [
                ("q2q", &indexes.q2q, &keys.q2q),
                ("q2i", &indexes.q2i, &keys.q2i),
                ("i2q", &indexes.i2q, &keys.i2q),
                ("i2i", &indexes.i2i, &keys.i2i),
            ] {
                let shared = std::sync::Arc::ptr_eq(got, want);
                assert!(shared, "{when}: shard {s} holds its own {name}");
            }
        }
    }

    pub(crate) fn tiny_inputs() -> IndexBuildInputs {
        IndexBuildInputs {
            queries_qq: shared_points(0..10, 1),
            queries_qi: shared_points(0..10, 2),
            items_qi: shared_points(100..140, 3),
            queries_qa: shared_points(0..10, 4),
            ads_qa: random_points(200..220, 5),
            items_ii: shared_points(100..140, 6),
            items_ia: shared_points(100..140, 7),
            ads_ia: random_points(200..220, 8),
        }
    }
}
