//! Sharded serving: [`ShardedEngine`] partitions the ad corpus across N
//! shards, builds them **in parallel**, serves every request from all of
//! them, and keeps R serving replicas per shard so the cluster survives
//! replica failures.
//!
//! The paper's production deployment (Fig. 9 / Table IX) spreads both the
//! offline MNN index build and the online iGraph serving layer across a
//! cluster; one monolithic [`RetrievalEngine`] cannot model that. Here the
//! [`IndexBuildInputs`] are split **by ad** with a deterministic hash
//! ([`ad_shard`]): every shard serves over the deployment's one copy of
//! the query / item side — the point sets and the first-layer key
//! indices, held once by its [`ShardedDeltaBuilder`], so every shard
//! expands a request to the same key set — but holds only its slice of
//! the ads (so the expensive second-layer Q2A / I2A builds and scans are
//! divided N ways).
//!
//! ## The cluster topology: parallel build, replica sets
//!
//! Independent axes, independent knobs on [`ShardedEngineBuilder`]:
//!
//! * **Parallel index builds** ([`ShardedEngineBuilder::build_threads`],
//!   default auto): a deployment's cold build is `4 + 2·shards`
//!   independent index builds — the four key-side indices once, plus each
//!   shard's Q2A and I2A — run as one [`amcad_mnn::fork_join()`] on scoped
//!   threads that live for the build. Results are re-assembled in task
//!   order, which makes the parallel build byte-identical to the
//!   sequential loop.
//! * **The gather is inline.** Serving a request gathers, for every
//!   expanded key, each shard's posting-list prefix and k-way merges them
//!   on the calling thread: the shards' prefixes are borrowed, not
//!   copied, and a per-key gather is microseconds of work, far less than
//!   a pool dispatch. A deployment holds no serving thread of its own.
//! * **Per-shard replication** ([`ShardedEngineBuilder::replicas`],
//!   default 1): each shard is served by a [`ReplicatedShard`] — R
//!   serving replicas behind round-robin selection with health marking.
//!   A replica administratively marked down through
//!   [`ReplicatedShard::fail_replica`] is skipped; traffic fails over to
//!   its siblings. Only when a shard loses *all*
//!   replicas does serving degrade to the typed
//!   [`RetrievalError::ShardUnavailable`]. Every response records the
//!   physical route taken in [`crate::RetrievalStats::served_by`], so tests (and
//!   operators) can prove failover actually rerouted traffic. In this
//!   in-process model a replica is a health flag over the shard's one
//!   shared engine — the gather reads that engine whichever replica the
//!   round-robin picked, where a real deployment copies the index per
//!   machine — so replication is an availability knob, never a ranking
//!   change, and nothing may assume replicas can differ.
//!
//! ## Serving: one loop, this module's fetch strategy
//!
//! The request loop itself — key expansion, the batch-scope fetch cache
//! with its scan attribution, scoring, the per-request result — is
//! [`crate::TwoLayerRetriever`]'s crate-internal `serve`, shared with the
//! single-node engine. [`ShardedEngine::retrieve_batch`] hands it the one
//! thing a topology changes: where the candidate prefixes of a request's
//! not-yet-cached keys come from — a per-request route plus
//! `merge_prefixes` over every shard's borrowed local prefix, per key,
//! inline. [`ShardedEngine::retrieve`] is the batch of one.
//!
//! ## Why the merge is exactly right, not approximately right
//!
//! Serving fans a request out to every shard and must return *precisely*
//! what a single engine over the whole corpus would return — otherwise
//! resharding would change ranking behaviour in production. The naive
//! merge (concatenate per-shard top-k responses, re-sort) is **wrong**:
//! each shard's per-key `ads_per_key` cut admits ads the global cut would
//! have rejected, and such an ad can sneak into the merged top-n. Instead
//! the merge happens one level lower, per expanded key: every shard
//! contributes its posting-list prefix for the key, the prefixes — each
//! already in the index build's `(distance, id)` order — are k-way merged
//! up to the global prefix length, and only then does the shared scoring
//! path run.
//! Because posting lists are the k smallest `(distance, id)` pairs and
//! shards partition the candidates, the merged prefix is bit-for-bit the
//! prefix a whole-corpus index would have produced — parity holds for the
//! ads, the scores, the logical stats and the coverage attribution alike
//! (the property tests in this module assert all four; only the physical
//! [`crate::RetrievalStats::served_by`] route reflects the topology).
//!
//! With the (deterministic) exact backend this parity is unconditional.
//! With IVF it holds only under full probing: per-shard clustering is a
//! different quantisation than whole-corpus clustering, so partial probes
//! may recall different candidates per shard.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::delta::ShardedDeltaBuilder;
use crate::engine::{ReplicaId, Request, RetrievalEngine, RetrievalResponse, Retrieve};
use crate::error::RetrievalError;
use crate::index_set::{IndexBuildConfig, IndexBuildInputs};
use crate::retriever::{Fetched, Key, RetrievalConfig};

/// Deterministic shard assignment for an ad id (Fibonacci hashing): the
/// same ad always lands on the same shard, independent of shard build
/// order, platform or process. Exposed so routers / delta-update tooling
/// can compute placements without an engine.
pub fn ad_shard(ad: u32, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    // multiplicative hash: the golden-ratio multiplier decorrelates
    // consecutive ids, and dropping the 7 low product bits (which barely
    // mix) before the mod keeps small shard counts from seeing patterns
    (ad.wrapping_mul(0x9E37_79B9) >> 7) as usize % shards
}

/// Builder for [`ShardedEngine`] — the same knobs as
/// [`crate::RetrievalEngineBuilder`] plus the cluster topology: shard
/// count, replicas per shard and build-pool width.
#[derive(Debug, Clone)]
pub struct ShardedEngineBuilder {
    pub(crate) shards: usize,
    pub(crate) replicas: usize,
    pub(crate) build_threads: usize,
    pub(crate) fanout_threads: usize,
    pub(crate) index: IndexBuildConfig,
    pub(crate) retrieval: RetrievalConfig,
}

impl Default for ShardedEngineBuilder {
    fn default() -> Self {
        ShardedEngineBuilder {
            shards: 1,
            replicas: 1,
            build_threads: 0, // auto: min(build tasks, available cores)
            fanout_threads: 1,
            index: IndexBuildConfig::default(),
            retrieval: RetrievalConfig::default(),
        }
    }
}

impl ShardedEngineBuilder {
    /// Number of shards the ad corpus is hash-partitioned into (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Serving replicas per shard (default 1). Replicas of one shard serve
    /// identical data; extra replicas buy availability — traffic fails
    /// over round-robin when a replica is marked down — never a ranking
    /// change.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Worker threads the cold build's `4 + 2·shards` index builds run
    /// on (default 0 = auto: one per build up to the machine's core
    /// count). The parallel build is byte-identical to the sequential one
    /// at any width.
    pub fn build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    /// Inert: serving gathers inline on the caller and never reads this
    /// width (default 1). The setter stays only because `benches/e2e`
    /// still calls it, and the v1 snapshot manifest still writes and
    /// reads the value, so snapshot bytes stay unchanged. The method
    /// leaves after ROADMAP item 2(g), the manifest field with the v2
    /// format (item 7).
    pub fn fanout_threads(mut self, fanout_threads: usize) -> Self {
        self.fanout_threads = fanout_threads.max(1);
        self
    }

    /// Select the ANN backend every shard builds its indices with.
    pub fn backend(mut self, backend: amcad_mnn::IndexBackend) -> Self {
        self.index.backend = backend;
        self
    }

    /// Posting-list length kept per key (default 20).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.index.top_k = top_k;
        self
    }

    /// Worker threads per index build (default 4). This is the *inner*
    /// parallelism of one index's construction;
    /// [`ShardedEngineBuilder::build_threads`] is how many indices build
    /// concurrently.
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

    /// Partition the inputs, build the shared key-side indices and every
    /// shard's ad-side indices ([`ShardedEngineBuilder::build_threads`]
    /// at a time) and assemble the serving engine over the shards that
    /// hold ads — the first generation of a [`ShardedDeltaBuilder`],
    /// without keeping the delta state. Invalid configuration and
    /// duplicate ids are rejected before any index work; if *every* shard
    /// is adless the build fails with the same
    /// [`RetrievalError::EmptyIndex`] a single engine over the whole
    /// inputs would report.
    pub fn build(self, inputs: &IndexBuildInputs) -> Result<ShardedEngine, RetrievalError> {
        ShardedDeltaBuilder::new(inputs, self)?.engine()
    }

    /// Reject zero-sized knobs — the cluster topology and the index /
    /// retrieval configuration every shard is built under — once per
    /// deployment, before any index work.
    pub(crate) fn validate(&self) -> Result<(), RetrievalError> {
        if self.shards == 0 {
            return Err(RetrievalError::InvalidConfig(
                "shard count must be positive".into(),
            ));
        }
        if self.replicas == 0 {
            return Err(RetrievalError::InvalidConfig(
                "replica count must be positive".into(),
            ));
        }
        RetrievalEngine::builder()
            .index(self.index)
            .retrieval(self.retrieval)
            .validate()
    }
}

/// State of one serving replica slot.
#[derive(Debug, Default)]
struct ReplicaSlot {
    /// Administratively marked down through
    /// [`ReplicatedShard::fail_replica`].
    down: AtomicBool,
    /// Requests this replica served (routing attribution).
    serves: AtomicU64,
}

/// One shard's replica set: R serving replicas behind round-robin
/// selection with health marking.
///
/// In this in-process model a replica is a health flag and a serve
/// counter over the shard's one shared engine (a real deployment copies
/// the index per machine), so which replica answers can never change a
/// ranking. What the replica set adds is *availability*: a
/// replica administratively marked down through
/// [`ReplicatedShard::fail_replica`] is skipped, traffic fails over to
/// its siblings, and only a shard with zero healthy
/// replicas degrades serving to [`RetrievalError::ShardUnavailable`].
#[derive(Debug)]
pub struct ReplicatedShard {
    engine: Arc<RetrievalEngine>,
    slots: Vec<ReplicaSlot>,
    cursor: AtomicUsize,
}

impl Clone for ReplicatedShard {
    /// Clones carry over the current health marking and serve counters.
    /// The clone shares the shard's immutable index storage (an [`Arc`]
    /// bump, not a deep copy).
    fn clone(&self) -> Self {
        ReplicatedShard {
            engine: Arc::clone(&self.engine),
            slots: self
                .slots
                .iter()
                .map(|slot| ReplicaSlot {
                    down: AtomicBool::new(slot.down.load(Ordering::Acquire)),
                    // serves is a monotonic telemetry counter: an older
                    // snapshot is still correct, so Relaxed
                    serves: AtomicU64::new(slot.serves.load(Ordering::Relaxed)),
                })
                .collect(),
            // round-robin hint only: any starting cursor is valid
            cursor: AtomicUsize::new(self.cursor.load(Ordering::Relaxed)),
        }
    }
}

impl ReplicatedShard {
    fn new(engine: Arc<RetrievalEngine>, replicas: usize) -> Self {
        ReplicatedShard {
            engine,
            slots: (0..replicas).map(|_| ReplicaSlot::default()).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The shard's engine (shared by all of its replicas).
    pub fn engine(&self) -> &RetrievalEngine {
        &self.engine
    }

    /// The shard's shared, immutable index storage. Delta publishes reuse
    /// this [`Arc`] for shards a delta does not touch, so a generation
    /// swap leaves untouched shards byte-identical (pointer-identical, in
    /// fact — `Arc::ptr_eq` across generations proves the reuse).
    pub fn engine_shared(&self) -> &Arc<RetrievalEngine> {
        &self.engine
    }

    /// Replicas currently accepting traffic.
    pub fn healthy_replicas(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| !slot.down.load(Ordering::Acquire))
            .count()
    }

    /// Administratively kill replica `replica`: it stops receiving
    /// traffic immediately; siblings absorb its share.
    pub fn fail_replica(&self, replica: usize) {
        self.slots[replica].down.store(true, Ordering::Release);
    }

    /// Bring replica `replica` back into rotation.
    pub fn restore_replica(&self, replica: usize) {
        self.slots[replica].down.store(false, Ordering::Release);
    }

    /// Requests served per replica since the engine was built — the
    /// routing attribution that lets a test prove round-robin spread and
    /// post-failure rerouting.
    pub fn serve_counts(&self) -> Vec<u64> {
        self.slots
            .iter()
            // monotonic telemetry counter — a slightly stale snapshot is
            // still a valid attribution, so Relaxed
            .map(|slot| slot.serves.load(Ordering::Relaxed))
            .collect()
    }

    /// Pick the replica for one request: round-robin over the healthy
    /// replicas, the shared cursor selecting the `cursor % healthy`-th of
    /// them. `None` only when no replica is healthy: the shard is
    /// unavailable.
    fn pick(&self) -> Option<u32> {
        let up = |slot: &&ReplicaSlot| !slot.down.load(Ordering::Acquire);
        let healthy = self.slots.iter().filter(up).count();
        // round-robin ticket: RMW atomicity spreads concurrent picks;
        // which exact slot a pick lands on is not a correctness property,
        // so Relaxed
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let nth = ticket.checked_rem(healthy)?;
        // `cycle` wraps if a replica went down since the count, and ends
        // at `None` once a whole pass finds none healthy
        let (r, slot) = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| up(slot))
            .cycle()
            .nth(nth)?;
        // monotonic telemetry counter, read by serve_counts() — Relaxed
        slot.serves.fetch_add(1, Ordering::Relaxed);
        Some(r as u32)
    }
}

/// Merge per-shard posting-list prefixes of one key into the whole-corpus
/// prefix of at most `cut` entries, in the index build's posting order
/// (distance by `total_cmp`, then id — NaN distances were normalised to
/// +inf at build time). Every prefix is already in that order and shards
/// partition the ads, so a k-way merge of the heads is exactly a sort of
/// the concatenation: it takes the smallest head `cut` times, consuming
/// `heads` as it goes, and allocates only the result.
fn merge_prefixes(heads: &mut [&[(u32, f64)]], cut: usize) -> Vec<(u32, f64)> {
    let precedes = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt();
    let mut merged = Vec::with_capacity(cut);
    for _ in 0..cut {
        let mut best: Option<usize> = None;
        for (s, list) in heads.iter().enumerate() {
            if let Some(head) = list.first() {
                if best.is_none_or(|b| precedes(head, &heads[b][0])) {
                    best = Some(s);
                }
            }
        }
        let Some(b) = best else { break };
        merged.push(heads[b][0]);
        heads[b] = &heads[b][1..];
    }
    merged
}

/// An ad corpus hash-partitioned across N replicated single-node engines,
/// served by gathering each request's keys from every shard inline and
/// merging per-key candidate prefixes back into the globally correct
/// ranking (see the module docs for why the merge is exact and how
/// replication fails over).
///
/// The merged [`crate::RetrievalStats`] describe the *logical* request — they
/// are identical to what a single whole-corpus engine would report, which
/// is what makes shard count, replica count and build-pool width pure
/// deployment knobs. The one physical field is
/// [`crate::RetrievalStats::served_by`]: the replica route this request actually
/// took, one entry per active shard. The raw cluster-wide work (each
/// shard scans its own first layer) is `active_shards()` times the
/// first-layer share of the counters.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: Vec<ReplicatedShard>,
    num_shards: usize,
    replicas: usize,
    index_config: IndexBuildConfig,
    retrieval: RetrievalConfig,
}

impl ShardedEngine {
    /// Start building a sharded engine.
    pub fn builder() -> ShardedEngineBuilder {
        ShardedEngineBuilder::default()
    }

    /// Assemble a serving engine around already-built (and possibly
    /// shared) per-shard engines, in active-shard order. This is how a
    /// delta publish constructs the next generation: shards the delta did
    /// not touch contribute the *same* [`Arc`] as the previous
    /// generation, so their index storage is reused rather than copied.
    /// Replica health marking starts fresh — a new generation's replicas
    /// all begin in rotation.
    pub(crate) fn from_shard_engines(
        engines: Vec<Arc<RetrievalEngine>>,
        topology: &ShardedEngineBuilder,
    ) -> ShardedEngine {
        debug_assert!(!engines.is_empty(), "callers reject all-empty builds");
        ShardedEngine {
            shards: engines
                .into_iter()
                .map(|engine| ReplicatedShard::new(engine, topology.replicas))
                .collect(),
            num_shards: topology.shards,
            replicas: topology.replicas,
            index_config: topology.index,
            retrieval: topology.retrieval,
        }
    }

    /// The configured shard count (including shards skipped for emptiness).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of shards actually holding ads and serving.
    pub fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// Configured serving replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// One shard's replica set, by active-shard index.
    pub fn shard(&self, shard: usize) -> &ReplicatedShard {
        &self.shards[shard]
    }

    /// Requests served per replica per active shard — routing
    /// attribution for tests and operators.
    pub fn replica_serves(&self) -> Vec<Vec<u64>> {
        self.shards
            .iter()
            .map(ReplicatedShard::serve_counts)
            .collect()
    }

    /// The index-construction configuration every shard was built with.
    pub fn index_config(&self) -> &IndexBuildConfig {
        &self.index_config
    }

    /// The two-layer retrieval configuration.
    pub fn config(&self) -> &RetrievalConfig {
        &self.retrieval
    }

    /// Choose the serving replica of every active shard for one request
    /// (round-robin with failover). `Err(ShardUnavailable)` when any
    /// shard has no healthy replica left — before any gather.
    fn route(&self) -> Result<Vec<ReplicaId>, RetrievalError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let replica = shard.pick().ok_or(RetrievalError::ShardUnavailable {
                    shard: s,
                    replicas: shard.slots.len(),
                })?;
                Ok(ReplicaId {
                    shard: s as u32,
                    replica,
                })
            })
            .collect()
    }

    /// The length a merged prefix is cut to: `ads_per_key`, and a
    /// whole-corpus posting list is at most `top_k` long. A shard's list
    /// is never longer, so each shard's first `cut` entries are all the
    /// merge can use.
    fn prefix_cut(&self) -> usize {
        self.retrieval.ads_per_key.min(self.index_config.top_k)
    }

    /// The fetch strategy: route to one healthy replica per shard, then
    /// merge every shard's borrowed local prefix of each key
    /// ([`merge_prefixes`]) into the globally correct one, inline on the
    /// caller — a key's gather is far cheaper than a pool dispatch.
    fn fetch_merged(&self, keys: &[Key]) -> Result<Fetched<Vec<(u32, f64)>>, RetrievalError> {
        let route = self.route()?;
        let cut = self.prefix_cut();
        let mut heads = Vec::with_capacity(self.shards.len());
        let lists = keys
            .iter()
            .map(|key| {
                heads.clear();
                let shards = self.shards.iter();
                heads.extend(shards.map(|s| s.engine().retriever().key_candidates(key, cut)));
                merge_prefixes(&mut heads, cut)
            })
            .collect();
        Ok((route, lists))
    }

    /// Serve one request — the batch of one of
    /// [`ShardedEngine::retrieve_batch`].
    pub fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        self.retrieve_batch(std::slice::from_ref(request))
            .pop()
            .expect("the request loop answers every request")
    }

    /// Serve a batch through the one request loop
    /// ([`crate::TwoLayerRetriever`]'s `serve`), which expands each
    /// request's keys once (first-layer indices are replicated, so any
    /// shard's expansion is *the* expansion) and asks this engine only for
    /// the merged whole-corpus candidate prefixes of the keys no earlier
    /// request of the batch gathered. Rankings and logical stats —
    /// deduplicated scan attribution included — are identical to what the
    /// single-node engine reports over the whole corpus: batching
    /// semantics are topology-invariant. Each request is routed (and can
    /// fail over) independently, so one request hitting a dead shard
    /// yields its own [`RetrievalError::ShardUnavailable`] — a degraded
    /// cluster rejects requests instead of silently serving a corpus with
    /// a hole in it — without poisoning the batch. The gathers run inline
    /// on the calling thread.
    pub fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        let retriever = self.shards[0].engine().retriever();
        retriever.serve(requests, |keys| self.fetch_merged(keys))
    }
}

impl Retrieve for ShardedEngine {
    fn retrieve(&self, request: &Request) -> Result<RetrievalResponse, RetrievalError> {
        ShardedEngine::retrieve(self, request)
    }

    fn retrieve_batch(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        ShardedEngine::retrieve_batch(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{random_points, shared_points, tiny_inputs};
    use amcad_mnn::{IndexBackend, IvfConfig, MixedPointSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn single_engine(inputs: &IndexBuildInputs, top_k: usize) -> RetrievalEngine {
        RetrievalEngine::builder()
            .top_k(top_k)
            .threads(1)
            .build(inputs)
            .unwrap()
    }

    fn sharded_engine(inputs: &IndexBuildInputs, shards: usize, top_k: usize) -> ShardedEngine {
        ShardedEngine::builder()
            .shards(shards)
            .top_k(top_k)
            .threads(1)
            .build_threads(1)
            .build(inputs)
            .unwrap()
    }

    /// The topology-invariant view of a served result: the physical
    /// `served_by` route is deployment attribution (single engines have
    /// none, sharded engines one entry per shard), so parity between
    /// topologies is asserted over everything else.
    fn logical(
        result: Result<RetrievalResponse, RetrievalError>,
    ) -> Result<RetrievalResponse, RetrievalError> {
        result
            .map(RetrievalResponse::logical)
            .map_err(RetrievalError::logical)
    }

    fn fixed_requests(n: u32) -> Vec<Request> {
        (0..n)
            .map(|q| Request {
                query: q % 10,
                preclick_items: vec![100 + (q % 10)],
            })
            .collect()
    }

    #[test]
    fn ad_shard_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for ad in (0..2000u32).step_by(13) {
                let s = ad_shard(ad, shards);
                assert!(s < shards);
                assert_eq!(s, ad_shard(ad, shards), "assignment must be stable");
            }
        }
        // the hash actually spreads ads (no degenerate single-shard pile-up)
        let mut counts = [0usize; 4];
        for ad in 0..1000u32 {
            counts[ad_shard(ad, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed split: {counts:?}");
    }

    /// The topology-parity property: over random worlds and every shard
    /// count in {1, 2, 4}, the sharded engine returns exactly the single
    /// engine's response — ads, scores, logical stats and coverage — and
    /// exactly its errors.
    #[test]
    fn sharded_engine_matches_single_engine_for_any_inputs_and_shard_count() {
        let mut rng = StdRng::seed_from_u64(0x5ead);
        for case in 0..12u64 {
            let n_ads = 3 + (case as u32 % 20); // includes corpora smaller than the shard count
            let inputs = IndexBuildInputs {
                queries_qq: shared_points(0..10, 100 + case),
                queries_qi: shared_points(0..10, 200 + case),
                items_qi: shared_points(100..130, 300 + case),
                queries_qa: shared_points(0..10, 400 + case),
                ads_qa: random_points(200..200 + n_ads, 500 + case),
                items_ii: shared_points(100..130, 600 + case),
                items_ia: shared_points(100..130, 700 + case),
                ads_ia: random_points(200..200 + n_ads, 800 + case),
            };
            let top_k = 4 + (case as usize % 8);
            let single = single_engine(&inputs, top_k);
            for shards in [1usize, 2, 4] {
                let sharded = sharded_engine(&inputs, shards, top_k);
                for _ in 0..20 {
                    let request = Request {
                        query: rng.gen_range(0..12u32), // sometimes unknown
                        preclick_items: (0..rng.gen_range(0..3usize))
                            .map(|_| rng.gen_range(100..132u32))
                            .collect(),
                    };
                    let a = logical(single.retrieve(&request));
                    let b = logical(sharded.retrieve(&request));
                    assert_eq!(
                        a, b,
                        "parity failed: case {case}, {shards} shards, request {request:?}"
                    );
                }
            }
        }
    }

    /// The acceptance-criterion property for the build pool: at shard
    /// counts 1 / 2 / 4 / 7, a replicated engine built on several build
    /// threads is **byte-identical** to the one built sequentially —
    /// every response, every error, every stat including the physical
    /// replica route (round-robin advances identically).
    #[test]
    fn parallel_build_matches_the_sequential_path_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xfa0);
        for case in 0..4u64 {
            let n_ads = 5 + (case as u32 * 7);
            let inputs = IndexBuildInputs {
                queries_qq: shared_points(0..10, 10 + case),
                queries_qi: shared_points(0..10, 20 + case),
                items_qi: shared_points(100..130, 30 + case),
                queries_qa: shared_points(0..10, 40 + case),
                ads_qa: random_points(200..200 + n_ads, 50 + case),
                items_ii: shared_points(100..130, 60 + case),
                items_ia: shared_points(100..130, 70 + case),
                ads_ia: random_points(200..200 + n_ads, 80 + case),
            };
            for shards in [1usize, 2, 4, 7] {
                let build = |build_threads: usize| {
                    ShardedEngine::builder()
                        .shards(shards)
                        .replicas(2)
                        .top_k(8)
                        .threads(1)
                        .build_threads(build_threads)
                        .build(&inputs)
                        .unwrap()
                };
                let sequential = build(1);
                let parallel = build(4);
                assert_eq!(sequential.active_shards(), parallel.active_shards());
                // identical request sequences: single requests ...
                for _ in 0..12 {
                    let request = Request {
                        query: rng.gen_range(0..12u32),
                        preclick_items: (0..rng.gen_range(0..3usize))
                            .map(|_| rng.gen_range(100..132u32))
                            .collect(),
                    };
                    assert_eq!(
                        sequential.retrieve(&request),
                        parallel.retrieve(&request),
                        "case {case}, {shards} shards: parallel serving diverged"
                    );
                }
                // ... and a batch with repeats (exercises the shared cache)
                let mut requests = fixed_requests(6);
                requests.push(requests[0].clone());
                requests.push(requests[3].clone());
                assert_eq!(
                    sequential.retrieve_batch(&requests),
                    parallel.retrieve_batch(&requests),
                    "case {case}, {shards} shards: parallel batch diverged"
                );
            }
        }
    }

    #[test]
    fn full_probe_ivf_sharding_matches_the_single_ivf_engine() {
        let inputs = tiny_inputs();
        let backend = IndexBackend::Ivf(IvfConfig {
            num_clusters: 3,
            kmeans_iters: 4,
            nprobe: 3, // full probing: quantisation cannot hide candidates
            seed: 11,
        });
        let single = RetrievalEngine::builder()
            .backend(backend)
            .top_k(8)
            .threads(1)
            .build(&inputs)
            .unwrap();
        let sharded = ShardedEngine::builder()
            .shards(2)
            .backend(backend)
            .top_k(8)
            .threads(1)
            .build(&inputs)
            .unwrap();
        for q in 0..10u32 {
            let request = Request {
                query: q,
                preclick_items: vec![100 + q],
            };
            assert_eq!(
                logical(single.retrieve(&request)),
                logical(sharded.retrieve(&request))
            );
        }
    }

    #[test]
    fn corpus_wide_rerank_quant_sharding_matches_the_single_quant_engine() {
        let inputs = tiny_inputs();
        let backend = IndexBackend::Quant(amcad_mnn::QuantConfig {
            ksub: 8,
            train_iters: 4,
            rerank_k: 64, // corpus-wide: quantisation cannot hide candidates
            seed: 11,
        });
        let single = RetrievalEngine::builder()
            .backend(backend)
            .top_k(8)
            .threads(1)
            .build(&inputs)
            .unwrap();
        for shards in [1usize, 2, 4] {
            let sharded = ShardedEngine::builder()
                .shards(shards)
                .backend(backend)
                .top_k(8)
                .threads(1)
                .build(&inputs)
                .unwrap();
            for q in 0..10u32 {
                let request = Request {
                    query: q,
                    preclick_items: vec![100 + q],
                };
                assert_eq!(
                    logical(single.retrieve(&request)),
                    logical(sharded.retrieve(&request)),
                    "{shards} shards"
                );
            }
        }
    }

    #[test]
    fn unknown_query_yields_the_single_engines_exact_no_coverage_error() {
        let inputs = tiny_inputs();
        let single = single_engine(&inputs, 8);
        let sharded = sharded_engine(&inputs, 4, 8);
        let request = Request {
            query: 9999,
            preclick_items: vec![],
        };
        let single_err = single.retrieve(&request).unwrap_err();
        let sharded_err = sharded.retrieve(&request).unwrap_err();
        assert!(matches!(
            sharded_err,
            RetrievalError::NoCoverage { query: 9999, .. }
        ));
        // the error still records the route that failed to cover
        let RetrievalError::NoCoverage { ref stats, .. } = sharded_err else {
            unreachable!()
        };
        assert_eq!(stats.served_by.len(), sharded.active_shards());
        assert_eq!(
            logical(Err(single_err)),
            logical(Err(sharded_err)),
            "logical stats in the error must match too"
        );
    }

    #[test]
    fn empty_shards_are_skipped_and_serving_still_covers_everything() {
        // one single ad: with 4 shards, three shards receive nothing
        let mut inputs = tiny_inputs();
        inputs.ads_qa = inputs.ads_qa.filtered(|ad| ad == 200);
        inputs.ads_ia = inputs.ads_ia.filtered(|ad| ad == 200);
        let sharded = sharded_engine(&inputs, 4, 8);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.active_shards(), 1);
        let single = single_engine(&inputs, 8);
        for q in 0..10u32 {
            let request = Request {
                query: q,
                preclick_items: vec![100 + q],
            };
            assert_eq!(
                logical(single.retrieve(&request)),
                logical(sharded.retrieve(&request))
            );
        }
    }

    /// One table, both entry points: every zero-sized knob, duplicate ids
    /// and an all-adless corpus are rejected by
    /// [`ShardedEngineBuilder::build`] and [`ShardedDeltaBuilder::new`]
    /// with the same typed error — the single-node builder's own error
    /// wherever a single node has the knob — at any build-pool width.
    #[test]
    fn adless_inputs_and_zero_knobs_fail_like_the_single_builder_through_both_entry_points() {
        let manifold = tiny_inputs().ads_qa.manifold().clone();
        let empty = MixedPointSet::new(manifold);
        let mut no_ads = tiny_inputs();
        no_ads.ads_qa = empty.clone();
        no_ads.ads_ia = empty;
        let mut duplicated = tiny_inputs();
        let i = duplicated.ads_ia.index_of(210).unwrap();
        let (point, weight) = (
            duplicated.ads_ia.point(i).to_vec(),
            duplicated.ads_ia.weight(i).to_vec(),
        );
        duplicated.ads_ia.push(210, &point, &weight);
        let valid = tiny_inputs();
        let two = || ShardedEngine::builder().shards(2);
        // (case, topology, inputs, whether a single node has the knob)
        let table: Vec<(&str, ShardedEngineBuilder, &IndexBuildInputs, bool)> = vec![
            (
                "shards = 0",
                ShardedEngine::builder().shards(0),
                &valid,
                false,
            ),
            ("replicas = 0", two().replicas(0), &valid, false),
            ("top_k = 0", two().top_k(0), &valid, true),
            ("threads = 0", two().threads(0), &valid, true),
            (
                "ads_per_key = 0",
                two().retrieval(RetrievalConfig {
                    ads_per_key: 0,
                    ..Default::default()
                }),
                &valid,
                true,
            ),
            (
                "final_top_n = 0",
                two().retrieval(RetrievalConfig {
                    final_top_n: 0,
                    ..Default::default()
                }),
                &valid,
                true,
            ),
            ("duplicate ids", two(), &duplicated, true),
            (
                "all-adless corpus",
                ShardedEngine::builder().shards(4),
                &no_ads,
                true,
            ),
        ];
        for (case, topology, inputs, single_node_knob) in table {
            for build_threads in [1usize, 4] {
                let topology = topology.clone().build_threads(build_threads);
                let via_build = topology.clone().build(inputs).unwrap_err();
                let via_delta = ShardedDeltaBuilder::new(inputs, topology.clone()).unwrap_err();
                assert_eq!(via_build, via_delta, "{case}: the entry points disagree");
                if single_node_knob {
                    let single = RetrievalEngine::builder()
                        .index(topology.index)
                        .retrieval(topology.retrieval)
                        .build(inputs)
                        .unwrap_err();
                    assert_eq!(via_build, single, "{case}");
                } else {
                    assert!(
                        matches!(via_build, RetrievalError::InvalidConfig(_)),
                        "{case}: got {via_build:?}"
                    );
                }
            }
        }
        assert_eq!(
            ShardedEngine::builder()
                .shards(4)
                .build(&no_ads)
                .unwrap_err(),
            RetrievalError::EmptyIndex { indices: "q2a+i2a" }
        );
    }

    /// `postings_scanned` of `request` served alone, computed from the
    /// indices rather than by the request loop: one scan per first-layer
    /// expansion, plus the candidate prefix of every key *occurrence* —
    /// a key the request reaches twice is counted twice.
    fn recounted_scans(single: &RetrievalEngine, request: &Request) -> usize {
        use amcad_mnn::InvertedIndex;
        let (idx, config) = (single.indexes(), single.config());
        let firsts = |index: &InvertedIndex, key: u32| -> Vec<u32> {
            let postings = index.get(key).into_iter().flatten();
            let firsts = postings.take(config.expansion_per_index);
            firsts.map(|(id, _)| *id).collect()
        };
        let mut queries = vec![request.query];
        queries.extend(firsts(&idx.q2q, request.query));
        let mut items = firsts(&idx.q2i, request.query);
        for &item in &request.preclick_items {
            items.push(item);
            queries.extend(firsts(&idx.i2q, item));
            items.extend(firsts(&idx.i2i, item));
        }
        let expansions = queries.len() + items.len() - 1 - request.preclick_items.len();
        let prefix = |index: &InvertedIndex, key: &u32| {
            index
                .get(*key)
                .map_or(0, |p| p.len().min(config.ads_per_key))
        };
        expansions
            + queries.iter().map(|q| prefix(&idx.q2a, q)).sum::<usize>()
            + items.iter().map(|i| prefix(&idx.i2a, i)).sum::<usize>()
    }

    #[test]
    fn batched_serving_is_topology_invariant_including_dedup_attribution() {
        // every flavour must report exactly what the single-node engine
        // reports — rankings AND deduplicated scan counts — so batching
        // semantics don't depend on the deployment topology
        let inputs = tiny_inputs();
        let single = single_engine(&inputs, 8);
        let mut requests: Vec<Request> = (0..6u32)
            .map(|q| Request {
                query: q,
                preclick_items: vec![100 + q],
            })
            .collect();
        // repeats make the cross-request dedup actually fire
        requests.push(requests[0].clone());
        requests.push(requests[2].clone());
        // a key repeated inside ONE request: the same pre-click item twice,
        // and a pre-click item that is also a Q2I expansion of its query
        let expansion_of_4 = single.indexes().q2i.get(4).unwrap()[0].0;
        let repeating = [
            Request {
                query: 7,
                preclick_items: vec![107, 107],
            },
            Request {
                query: 4,
                preclick_items: vec![expansion_of_4],
            },
        ];
        requests.extend(repeating.iter().cloned());
        let single_batch: Vec<_> = single
            .retrieve_batch(&requests)
            .into_iter()
            .map(logical)
            .collect();
        // and the dedup really saved scans on the repeated requests
        let scans = |r: &Result<RetrievalResponse, RetrievalError>| {
            r.as_ref().unwrap().stats.postings_scanned
        };
        assert!(scans(&single_batch[6]) < scans(&single_batch[0]));

        let mut flavours: Vec<(String, Box<dyn Retrieve>)> =
            vec![("single".into(), Box::new(single.clone()))];
        for shards in [1usize, 2, 4] {
            for replicas in [1usize, 2] {
                let engine = ShardedEngine::builder()
                    .shards(shards)
                    .replicas(replicas)
                    .top_k(8)
                    .threads(1)
                    .build_threads(1)
                    .build(&inputs)
                    .unwrap();
                flavours.push((
                    format!("{shards} shards, {replicas} replicas"),
                    Box::new(engine),
                ));
            }
        }
        for (flavour, engine) in &flavours {
            let batch: Vec<_> = engine
                .retrieve_batch(&requests)
                .into_iter()
                .map(logical)
                .collect();
            assert_eq!(batch, single_batch, "{flavour}");
            for request in &repeating {
                let alone = engine.retrieve(request).unwrap();
                let batch_of_one = engine
                    .retrieve_batch(std::slice::from_ref(request))
                    .pop()
                    .unwrap()
                    .unwrap();
                assert_eq!(
                    alone.stats.served_by.len(),
                    batch_of_one.stats.served_by.len(),
                    "{flavour}: a batch of one takes the route of a lone request"
                );
                assert_eq!(
                    alone.stats.postings_scanned,
                    recounted_scans(&single, request),
                    "{flavour}: a repeat within one request re-counts"
                );
                assert_eq!(alone.clone().logical(), batch_of_one.logical(), "{flavour}");
                assert_eq!(
                    logical(Ok(alone)),
                    logical(single.retrieve(request)),
                    "{flavour}"
                );
            }
        }
        // the bare retriever is the same loop without the typed error
        for request in &repeating {
            let response = single.retrieve(request).unwrap();
            let bare = single
                .retriever()
                .retrieve_with_stats(request.query, &request.preclick_items);
            assert_eq!(bare, (response.ads, response.stats));
        }
    }

    #[test]
    fn round_robin_spreads_requests_across_replicas() {
        let engine = ShardedEngine::builder()
            .shards(2)
            .replicas(3)
            .top_k(8)
            .threads(1)
            .build(&tiny_inputs())
            .unwrap();
        let requests = fixed_requests(12);
        for (i, request) in requests.iter().enumerate() {
            let response = engine.retrieve(request).unwrap();
            assert_eq!(response.stats.served_by.len(), engine.active_shards());
            for (s, id) in response.stats.served_by.iter().enumerate() {
                assert_eq!(id.shard, s as u32, "route entries are in shard order");
                assert_eq!(
                    id.replica,
                    (i % 3) as u32,
                    "healthy round-robin rotates per request"
                );
            }
        }
        // attribution counters agree: 12 requests over 3 replicas = 4 each
        for shard_counts in engine.replica_serves() {
            assert_eq!(shard_counts, vec![4, 4, 4]);
        }
    }

    /// The acceptance-criterion failover property: kill each replica in
    /// turn — every served ranking, logical stat and coverage stays
    /// identical to the healthy cluster, and the route proves the killed
    /// replica received no traffic while its siblings absorbed it.
    #[test]
    fn killing_any_single_replica_never_changes_a_served_ranking() {
        let engine = ShardedEngine::builder()
            .shards(2)
            .replicas(3)
            .top_k(8)
            .threads(1)
            .build(&tiny_inputs())
            .unwrap();
        let requests = fixed_requests(9);
        let healthy: Vec<_> = requests
            .iter()
            .map(|r| logical(engine.retrieve(r)))
            .collect();
        assert!(healthy.iter().all(Result::is_ok));
        for shard in 0..engine.active_shards() {
            for replica in 0..engine.replicas() {
                engine.shard(shard).fail_replica(replica);
                assert_eq!(engine.shard(shard).healthy_replicas(), 2);
                let before_serves = engine.replica_serves();
                for (request, expected) in requests.iter().zip(&healthy) {
                    let result = engine.retrieve(request);
                    // the killed replica got no traffic; a sibling served
                    let route = &result.as_ref().unwrap().stats.served_by;
                    assert_eq!(route.len(), engine.active_shards());
                    assert_ne!(
                        route[shard].replica, replica as u32,
                        "traffic must reroute away from the killed replica"
                    );
                    assert_eq!(&logical(result), expected, "failover changed a response");
                }
                let after_serves = engine.replica_serves();
                assert_eq!(
                    before_serves[shard][replica], after_serves[shard][replica],
                    "a killed replica must serve nothing"
                );
                let rerouted: u64 = after_serves[shard].iter().sum::<u64>()
                    - before_serves[shard].iter().sum::<u64>();
                assert_eq!(
                    rerouted,
                    requests.len() as u64,
                    "siblings must absorb the killed replica's share"
                );
                let absorbed: Vec<u64> = (0..engine.replicas())
                    .filter(|&r| r != replica)
                    .map(|r| after_serves[shard][r] - before_serves[shard][r])
                    .collect();
                assert!(
                    absorbed[0].abs_diff(absorbed[1]) <= 1,
                    "the healthy siblings share the load evenly: {absorbed:?}"
                );
                engine.shard(shard).restore_replica(replica);
                assert_eq!(engine.shard(shard).healthy_replicas(), 3);
            }
        }
    }

    #[test]
    fn losing_every_replica_of_a_shard_is_a_typed_error_not_a_panic() {
        let engine = ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .top_k(8)
            .threads(1)
            .build(&tiny_inputs())
            .unwrap();
        engine.shard(1).fail_replica(0);
        engine.shard(1).fail_replica(1);
        let requests = fixed_requests(3);
        assert_eq!(
            engine.retrieve(&requests[0]).unwrap_err(),
            RetrievalError::ShardUnavailable {
                shard: 1,
                replicas: 2
            }
        );
        // the batch path degrades per request, it does not panic either
        for result in engine.retrieve_batch(&requests) {
            assert_eq!(
                result.unwrap_err(),
                RetrievalError::ShardUnavailable {
                    shard: 1,
                    replicas: 2
                }
            );
        }
        // one restored replica brings the whole cluster back
        engine.shard(1).restore_replica(0);
        assert!(engine.retrieve(&requests[0]).is_ok());
    }

    /// The merge as it used to be written, kept as the oracle:
    /// concatenate, sort in posting order, truncate.
    fn sort_and_truncate(lists: &[Vec<(u32, f64)>], cut: usize) -> Vec<(u32, f64)> {
        let mut merged = lists.concat();
        merged.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        merged.truncate(cut);
        merged
    }

    /// The k-way merge is the sort: over 1–8 shards of sorted prefixes
    /// with distance ties across shards, `+∞`, ±0 and empty lists, at
    /// every cut around the total, ids and distance bits agree.
    #[test]
    fn k_way_merge_equals_sort_and_truncate_for_any_sorted_prefixes() {
        let mut rng = StdRng::seed_from_u64(0x3e26e);
        // few distinct distances, so ties across shards are common
        let distances = [-0.0, 0.0, 0.5, 1.25, 3.0, f64::INFINITY];
        let bits = |list: &[(u32, f64)]| -> Vec<(u32, u64)> {
            list.iter().map(|&(id, d)| (id, d.to_bits())).collect()
        };
        for case in 0..2000 {
            let shards = rng.gen_range(1..=8usize);
            let mut next = 0u32;
            let mut lists = Vec::with_capacity(shards);
            for _ in 0..shards {
                let mut list = Vec::new();
                for _ in 0..rng.gen_range(0..=6usize) {
                    // shards partition the ads: ids are unique, in an
                    // order unrelated to the distances
                    let id = next * 37 % 1009;
                    next += 1;
                    let d = if rng.gen_bool(0.2) {
                        rng.gen_range(0.0..4.0)
                    } else {
                        distances[rng.gen_range(0..distances.len())]
                    };
                    list.push((id, d));
                }
                list.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                lists.push(list);
            }
            let total = next as usize;
            for cut in [0, 1, total.saturating_sub(1), total, total + 3] {
                let mut heads: Vec<&[(u32, f64)]> = lists.iter().map(Vec::as_slice).collect();
                let merged = merge_prefixes(&mut heads, cut);
                assert_eq!(
                    bits(&merged),
                    bits(&sort_and_truncate(&lists, cut)),
                    "case {case}, cut {cut}: {lists:?}"
                );
            }
        }
    }
}
