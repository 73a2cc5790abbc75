//! # amcad
//!
//! Facade crate for the Rust reproduction of **AMCAD: Adaptive
//! Mixed-Curvature Representation based Advertisement Retrieval System**
//! (ICDE 2022).
//!
//! The implementation is split into focused crates, all re-exported here:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`manifold`] | `amcad-manifold` | κ-stereographic constant-curvature and product-manifold math |
//! | [`autodiff`] | `amcad-autodiff` | reverse-mode autodiff, parameter store, AdaGrad |
//! | [`graph`] | `amcad-graph` | heterogeneous query–item–ad graph engine, meta-path sampling |
//! | [`datagen`] | `amcad-datagen` | synthetic sponsored-search behaviour-log generator |
//! | [`model`] | `amcad-model` | the adaptive mixed-curvature model family + walk baselines |
//! | [`mnn`] | `amcad-mnn` | pluggable ANN backends (`AnnIndex`): exact parallel scan, tangent-space IVF, HNSW graph, quantised postings |
//! | [`retrieval`] | `amcad-retrieval` | the serving triad — `Retrieve` trait, `RetrievalEngine` / `ShardedEngine`, hot-swappable `EngineHandle` — plus delta publishes, durable snapshots and the serving runtime |
//! | [`eval`] | `amcad-eval` | ranking metrics and the A/B click/revenue simulator |
//! | [`core`] | `amcad-core` | the end-to-end pipeline and the offline evaluation protocol |
//!
//! ## Quickstart
//!
//! ```no_run
//! use amcad::core::{Pipeline, PipelineConfig};
//! use amcad::retrieval::Request;
//!
//! // logs → graph → training → indices → retrieval engine → metrics
//! let result = Pipeline::new(PipelineConfig::small(42)).run();
//! println!("Next AUC = {:.2}", result.offline.next_auc);
//!
//! let session = &result.dataset.eval_sessions[0];
//! let response = result
//!     .engine
//!     .retrieve(&Request { query: session.query.0, preclick_items: vec![] })
//!     .expect("covered query");
//! println!(
//!     "retrieved {} ads via {:?} ({} postings scanned)",
//!     response.ads.len(),
//!     response.stats.coverage,
//!     response.stats.postings_scanned
//! );
//! ```
//!
//! ## The serving triad: `Retrieve`, `ShardedEngine`, `EngineHandle`
//!
//! Production callers program against the object-safe
//! [`retrieval::Retrieve`] trait; the deployment topology behind it —
//! shard count, replicas per shard, build-pool width —
//! is a pure configuration choice that never changes a ranking:
//!
//! ```no_run
//! use amcad::core::{build_index_inputs, Pipeline, PipelineConfig};
//! use amcad::mnn::{IndexBackend, IvfConfig};
//! use amcad::retrieval::{EngineHandle, Retrieve, RetrievalEngine, ShardedEngine};
//!
//! let result = Pipeline::new(PipelineConfig::small(42)).run();
//! let inputs = build_index_inputs(&result.export, &result.dataset);
//!
//! // one node: exact multi-threaded scan (the paper's MNN module) ...
//! let exact = RetrievalEngine::builder()
//!     .backend(IndexBackend::Exact)
//!     .build(&inputs)?;
//! // ... or approximate IVF with a recall/build-time trade-off ...
//! let ivf = RetrievalEngine::builder()
//!     .backend(IndexBackend::Ivf(IvfConfig::default()))
//!     .build(&inputs)?;
//! assert_eq!(exact.indexes().total_keys(), ivf.indexes().total_keys());
//!
//! // ... or the paper's cluster shape: ads hash-partitioned across 4
//! // shards (each shard's index built concurrently on the build
//! // pool), 2 serving replicas per shard with round-robin failover, and
//! // each request's shard prefixes merged inline — all returning
//! // bit-identical rankings to the single exact engine
//! let sharded = ShardedEngine::builder()
//!     .shards(4)
//!     .replicas(2)
//!     .build_threads(4)
//!     .build(&inputs)?;
//!
//! // availability: a replica marked down reroutes traffic to
//! // its siblings — every response records the route it took — and only
//! // a shard with zero healthy replicas degrades to a typed error
//! sharded.shard(0).fail_replica(1);
//! let response = sharded.retrieve(&amcad::retrieval::Request {
//!     query: 7,
//!     preclick_items: vec![],
//! })?;
//! println!("served by {:?}", response.stats.served_by);
//!
//! // live serving sits behind a hot-swappable handle: rebuild offline,
//! // publish with one snapshot swap, zero downtime
//! let handle = EngineHandle::new(sharded);
//! let serving: &dyn Retrieve = &handle;
//! # let _ = serving;
//! let rebuilt = ShardedEngine::builder().shards(4).replicas(2).build(&inputs)?;
//! let generation = handle.publish(rebuilt);
//! assert_eq!(handle.generation(), generation);
//! # Ok::<(), amcad::retrieval::RetrievalError>(())
//! ```
//!
//! ## Delta publishes: incremental freshness between rebuilds
//!
//! Full rebuilds cover the daily retrain; the ad corpus churns far more
//! often. A delta publish appends / retires ads **in place** between
//! generations — only the ad-side postings of only the touched shards
//! are updated (untouched shards reuse their `Arc`'d index storage
//! pointer-identically), and the resulting rankings are property-tested
//! bit-identical to a from-scratch rebuild of the post-delta corpus:
//!
//! ```no_run
//! use amcad::core::{build_index_inputs, Pipeline, PipelineConfig};
//! use amcad::retrieval::{EngineHandle, IndexDelta, ShardedDeltaBuilder, ShardedEngine};
//!
//! let result = Pipeline::new(PipelineConfig::small(42)).run();
//! let inputs = build_index_inputs(&result.export, &result.dataset);
//!
//! // seed generation 1: per-shard delta state + the serving engine
//! let mut builder = ShardedDeltaBuilder::new(
//!     &inputs,
//!     ShardedEngine::builder().shards(4).replicas(2),
//! )?;
//! let handle = EngineHandle::new(builder.engine()?);
//!
//! // corpus churn: retire two ads (a retire-only delta needs no points;
//! // on-boarding new ads carries their projected points in both ad spaces)
//! let ads = inputs.ads_qa.ids();
//! let delta = IndexDelta::retire_only(&inputs, vec![ads[0], ads[1]]);
//! let generation = handle.publish_delta(&mut builder, &delta)?;
//! println!("generation {generation} live — no O(corpus²) rebuild, no downtime");
//! # Ok::<(), amcad::retrieval::RetrievalError>(())
//! ```
//!
//! Build inputs are validated on every path (duplicate ids →
//! `RetrievalError::DuplicateId`, ad spaces holding different ad ids →
//! `RetrievalError::InvalidConfig`, retiring unknown ads →
//! `RetrievalError::UnknownAd`), and emptied deployments degrade to the
//! typed `EmptyIndex` / `ShardUnavailable` errors rather than panicking.
//! See `crates/retrieval/src/README.md` for the full append/retire
//! lifecycle. The reference benchmark under `benches/e2e` times the
//! deployment's costs: the cold build (`build_s`), a delta publish
//! (`delta_publish_s`) and a warm restart from a snapshot (`restart_s`).
//!
//! ## The serving runtime: admission control, deadlines, shedding
//!
//! In production, correctness under load matters as much as correctness
//! of rankings. The [`retrieval::ServingRuntime`] puts a bounded
//! admission queue with per-request deadlines in front of any
//! `Arc<dyn Retrieve>`: when traffic outruns the workers, excess
//! requests are *shed* with the typed
//! `RetrievalError::Overloaded { queue_depth, deadline }` instead of
//! queueing without bound, requests that age past their deadline while
//! queued are shed rather than answered late, and queued neighbours are
//! drained into one scan-deduplicated `retrieve_batch` call. Every
//! resident thread is one of the runtime's long-lived workers, parked
//! on its admission queue while it is empty, so no request spawns a
//! thread, and shard gathers are merged inline on the serving worker.
//! Each ticket resolves with the
//! instant it was answered or shed (`Ticket::wait_timed`), which is all
//! a load generator needs: the open-loop driver lives in the
//! `amcad-bench` crate as a plain client of `ServingRuntime::submit`,
//! reporting shed / timeout counts and goodput per phase.
//!
//! The `PipelineConfig::index` field threads the backend selection
//! through the one-call pipeline, and `amcad-bench`'s open-loop driver
//! load-tests any [`retrieval::Retrieve`] implementation (see
//! `examples/online_serving.rs` for the coverage comparison plus the
//! flash-crowd shedding and replica-failover runtime demo,
//! `examples/incremental_training.rs` for the rebuild-and-publish loop,
//! the `fig9_serving_latency` binary for latency against offered QPS and
//! the runtime's admission ladder, and `table9_scalability` for training
//! and index-build cost, the recall/build-time frontier and the quantised
//! footprint).
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the experiment harness that regenerates every table and figure of the
//! paper.

pub use amcad_autodiff as autodiff;
pub use amcad_core as core;
pub use amcad_datagen as datagen;
pub use amcad_eval as eval;
pub use amcad_graph as graph;
pub use amcad_manifold as manifold;
pub use amcad_mnn as mnn;
pub use amcad_model as model;
pub use amcad_retrieval as retrieval;
