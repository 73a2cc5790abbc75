//! Delta publishes: incremental append/retire index updates between
//! serving generations.
//!
//! The paper's corpus churns daily while queries keep flowing; rebuilding
//! every index from scratch for a small daily delta wastes almost all of
//! the O(keys × ads) build work on ads that did not change. This module
//! maintains the ad-side indices *incrementally*:
//!
//! * [`IndexDelta`] describes one churn step — ads added (with their
//!   points in both ad edge spaces) and ads retired.
//! * `DeltaBuilder` (crate-private) owns one corpus's [`IndexBuildInputs`]
//!   and turns the previous generation's [`IndexSet`] plus a delta into
//!   the next generation's `IndexSet` without re-running the full
//!   neighbour build.
//! * [`ShardedDeltaBuilder`] cold-builds a deployment (the key-side
//!   indices once, shared by every shard), runs one `DeltaBuilder` per
//!   shard and routes each delta only to the shards [`ad_shard`] assigns
//!   its ads to; untouched shards keep their [`Arc`]'d engines
//!   pointer-identical across generations.
//! * [`crate::EngineHandle::publish_delta`] applies a delta through a
//!   builder and publishes the resulting generation with one snapshot
//!   swap — the zero-downtime incremental index update.
//!
//! ## Why the delta result is *exactly* a full rebuild
//!
//! A posting list is the `top_k` smallest `(distance, id)` pairs over the
//! candidate ads. For each key the delta path assembles three sorted
//! pieces and re-cuts to `top_k`:
//!
//! 1. **Filter** — the previous posting list minus retired ads. This is
//!    the exact top prefix over the surviving ads *unless* the old list
//!    was at the `top_k` cap and retirement removed entries from it: then
//!    survivors ranked `top_k + 1 ..` in the old corpus could now enter,
//!    and the prefix alone cannot know them.
//! 2. **Backfill** — exactly those boundary-broken keys are rescanned
//!    against the surviving ads (a small set for small deltas: only keys
//!    whose full lists actually contained a retired ad).
//! 3. **Append** — every key's top-`top_k` over the *added* ads only
//!    (O(keys × added), not O(keys × corpus)), computed with the same
//!    backend and distance kernel as a full build.
//!
//! Surviving and added ads partition the post-delta corpus, distances are
//! deterministic functions of the stored points, and both the build and
//! the merge order by `(distance, id)` with NaN normalised to +inf — so
//! the merged cut is bit-for-bit the posting list a from-scratch rebuild
//! would produce. The property tests in this module assert exactly that,
//! at the index level (posting ids *and* distances) and at the serving
//! level (rankings and [`crate::RetrievalStats::logical`] stats for shard
//! counts 1 / 2 / 4).
//!
//! With the deterministic exact backend this equivalence is
//! unconditional. With partial-probe IVF it is not: the delta path probes
//! the added ads under their own clustering, so results may differ from a
//! re-clustered full rebuild exactly as two IVF builds may differ —
//! full-probe IVF remains exact.
//!
//! The key-side indices (Q2Q, Q2I, I2Q, I2I) contain no ads: a deployment
//! holds one copy, which every shard and every delta generation shares.
//! Key churn still requires a full rebuild — the daily retrain path; delta
//! publishes cover the much more frequent corpus churn in between.

use std::collections::HashSet;
use std::sync::Arc;

use amcad_mnn::{InvertedIndex, MixedPointSet, Postings};

use crate::engine::RetrievalEngine;
use crate::error::RetrievalError;
use crate::index_set::{IndexBuildConfig, IndexBuildInputs, IndexSet};
use crate::shard::{ad_shard, shard_inputs, ServingState, ShardedEngine, ShardedEngineBuilder};

/// One corpus churn step: ads entering and leaving the serving corpus
/// between two generations. Added ads carry their projected points (and
/// attention weights) in both ad edge spaces; retired ads are named by id.
///
/// An id may appear in `retired_ads` *and* in the added sets — that is an
/// in-place replacement (the ad's embedding changed): the old point is
/// retired first, the new one added.
#[derive(Debug, Clone)]
pub struct IndexDelta {
    /// Added ads projected into the Q-A edge space.
    pub added_ads_qa: MixedPointSet,
    /// Added ads projected into the I-A edge space (same ids as
    /// `added_ads_qa`).
    pub added_ads_ia: MixedPointSet,
    /// Ids of ads leaving the corpus.
    pub retired_ads: Vec<u32>,
}

impl IndexDelta {
    /// A retire-only delta: no added ads (empty added sets over the
    /// corpus's ad-space manifolds), `retired_ads` leaving.
    pub fn retire_only(inputs: &IndexBuildInputs, retired_ads: Vec<u32>) -> IndexDelta {
        IndexDelta {
            added_ads_qa: MixedPointSet::new(inputs.ads_qa.manifold().clone()),
            added_ads_ia: MixedPointSet::new(inputs.ads_ia.manifold().clone()),
            retired_ads,
        }
    }

    /// Whether this delta changes nothing (no adds, no retires).
    pub fn is_empty(&self) -> bool {
        self.added_ads_qa.is_empty() && self.added_ads_ia.is_empty() && self.retired_ads.is_empty()
    }

    /// Apply this delta's corpus change to plain build inputs: retire
    /// first, then append the added ads to both ad spaces (so a
    /// retire+add replacement lands the new points). This is the
    /// ground-truth transformation every delta-built index is tested
    /// against — a from-scratch [`IndexSet::build`] over the transformed
    /// inputs must equal the incrementally built set.
    pub fn apply_to(&self, inputs: &mut IndexBuildInputs) {
        let retired: HashSet<u32> = self.retired_ads.iter().copied().collect();
        inputs.ads_qa.retire(|id| retired.contains(&id));
        inputs.ads_ia.retire(|id| retired.contains(&id));
        inputs.ads_qa.append(&self.added_ads_qa);
        inputs.ads_ia.append(&self.added_ads_ia);
    }
}

/// Incremental index maintenance for one corpus (one engine, or one shard
/// of a sharded deployment): owns the current [`IndexBuildInputs`] and
/// produces each next generation's [`IndexSet`] from the previous one
/// plus an [`IndexDelta`] — see the module docs for the algorithm and the
/// exactness argument.
#[derive(Debug, Clone)]
pub(crate) struct DeltaBuilder {
    inputs: IndexBuildInputs,
    config: IndexBuildConfig,
}

impl DeltaBuilder {
    /// Track `inputs` (validated: duplicate ids are rejected) with the
    /// index configuration every generation is built under. The
    /// configuration must match the one the previous generation's
    /// `IndexSet` was built with — a different `top_k` would make the
    /// filter/backfill boundary analysis wrong.
    pub(crate) fn new(
        inputs: IndexBuildInputs,
        config: IndexBuildConfig,
    ) -> Result<Self, RetrievalError> {
        inputs.validate()?;
        Ok(DeltaBuilder { inputs, config })
    }

    /// The current (post-all-applied-deltas) build inputs. A from-scratch
    /// [`IndexSet::build`] over these is what every delta-built index is
    /// property-tested to equal.
    pub(crate) fn inputs(&self) -> &IndexBuildInputs {
        &self.inputs
    }

    /// The delta checks that depend on this corpus:
    /// [`RetrievalError::UnknownAd`] for retiring an id the corpus does
    /// not contain, [`RetrievalError::DuplicateId`] for an added id the
    /// corpus already holds without retiring it. Together with
    /// [`validate_added_sets`] this is everything
    /// [`DeltaBuilder::apply`] relies on; neither mutates, so a caller
    /// can check every corpus a delta touches before changing any.
    pub(crate) fn validate_delta(&self, delta: &IndexDelta) -> Result<(), RetrievalError> {
        for &ad in &delta.retired_ads {
            if !self.inputs.ads_qa.contains_id(ad) || !self.inputs.ads_ia.contains_id(ad) {
                return Err(RetrievalError::UnknownAd { ad });
            }
        }
        let retired: HashSet<u32> = delta.retired_ads.iter().copied().collect();
        for &id in delta.added_ads_qa.ids() {
            if self.inputs.ads_qa.contains_id(id) && !retired.contains(&id) {
                return Err(RetrievalError::DuplicateId {
                    space: "delta added_ads (already in corpus)",
                    id,
                });
            }
        }
        Ok(())
    }

    /// Produce the next generation's [`IndexSet`] from the previous
    /// generation's `prev` plus `delta`, updating the held inputs. `prev`
    /// must be the set built from this builder's current inputs under its
    /// configuration (the seed build or the previous `apply` result), and
    /// `delta` must have passed [`validate_added_sets`] and
    /// [`DeltaBuilder::validate_delta`] — nothing here can fail.
    ///
    /// Retiring *every* ad is valid at this level and yields empty ad
    /// indices (exactly like a full rebuild over an adless corpus);
    /// assembling an engine from that set then fails with the typed
    /// [`RetrievalError::EmptyIndex`] instead of panicking.
    pub(crate) fn apply(&mut self, prev: &IndexSet, delta: &IndexDelta) -> IndexSet {
        let retired: HashSet<u32> = delta.retired_ads.iter().copied().collect();
        // retire in place; the survivors are the backfill candidate set
        self.inputs.ads_qa.retire(|id| retired.contains(&id));
        self.inputs.ads_ia.retire(|id| retired.contains(&id));
        let q2a = delta_ad_index(
            &prev.q2a,
            &self.inputs.queries_qa,
            &self.inputs.ads_qa,
            &delta.added_ads_qa,
            &retired,
            self.config,
        );
        let i2a = delta_ad_index(
            &prev.i2a,
            &self.inputs.items_ia,
            &self.inputs.ads_ia,
            &delta.added_ads_ia,
            &retired,
            self.config,
        );
        self.inputs.ads_qa.append(&delta.added_ads_qa);
        self.inputs.ads_ia.append(&delta.added_ads_ia);
        // the key-side indices contain no ads: the next generation shares them
        prev.with_ad_side(q2a, i2a)
    }
}

/// The delta checks that do not depend on the current corpus: each added
/// space is duplicate-free and both add the same id set.
fn validate_added_sets(delta: &IndexDelta) -> Result<(), RetrievalError> {
    if let Some(id) = delta.added_ads_qa.first_duplicate_id() {
        return Err(RetrievalError::DuplicateId {
            space: "delta added_ads_qa",
            id,
        });
    }
    if let Some(id) = delta.added_ads_ia.first_duplicate_id() {
        return Err(RetrievalError::DuplicateId {
            space: "delta added_ads_ia",
            id,
        });
    }
    let mut qa: Vec<u32> = delta.added_ads_qa.ids().to_vec();
    let mut ia: Vec<u32> = delta.added_ads_ia.ids().to_vec();
    qa.sort_unstable();
    ia.sort_unstable();
    if qa != ia {
        return Err(RetrievalError::InvalidConfig(
            "delta must add every ad to both ad spaces (added_ads_qa and added_ads_ia id sets differ)".into(),
        ));
    }
    Ok(())
}

/// The incremental update of one ad-side inverted index (Q2A or I2A):
/// filter retired ads out of the previous postings, backfill the keys
/// whose full lists lost entries by rescanning them against the surviving
/// ads, compute every key's postings over the added ads only, and merge —
/// see the module docs for why the result is bit-for-bit a full rebuild.
fn delta_ad_index(
    prev: &InvertedIndex,
    keys: &MixedPointSet,
    surviving: &MixedPointSet,
    added: &MixedPointSet,
    retired: &HashSet<u32>,
    config: IndexBuildConfig,
) -> InvertedIndex {
    let k = config.top_k;
    let mut next = InvertedIndex::default();
    if k == 0 || keys.is_empty() || (surviving.is_empty() && added.is_empty()) {
        // the contract full builds keep: no candidates → an EMPTY index,
        // not keys with empty posting lists
        return next;
    }
    // postings of every key over the added ads only: O(keys × added)
    let added_index = if added.is_empty() {
        None
    } else {
        Some(
            config
                .backend
                .build_index(keys, added, k, false, config.threads),
        )
    };
    // boundary-broken keys: the old list was at the top_k cap AND lost a
    // retired entry, so survivors past the old cut may now enter
    let rescan_ids: HashSet<u32> = keys
        .ids()
        .iter()
        .copied()
        .filter(|id| {
            prev.get(*id)
                .is_some_and(|old| old.len() == k && old.iter().any(|(ad, _)| retired.contains(ad)))
        })
        .collect();
    let rescan_index = if rescan_ids.is_empty() || surviving.is_empty() {
        None
    } else {
        let rescan_keys = keys.filtered(|id| rescan_ids.contains(&id));
        Some(
            config
                .backend
                .build_index(&rescan_keys, surviving, k, false, config.threads),
        )
    };
    for i in 0..keys.len() {
        let id = keys.id(i);
        let mut merged: Postings = match rescan_index.as_ref().and_then(|idx| idx.get(id)) {
            Some(rescanned) => rescanned.clone(),
            None => prev
                .get(id)
                .map(|old| {
                    old.iter()
                        .filter(|(ad, _)| !retired.contains(ad))
                        .copied()
                        .collect()
                })
                .unwrap_or_default(),
        };
        if let Some(postings) = added_index.as_ref().and_then(|idx| idx.get(id)) {
            merged.extend_from_slice(postings);
        }
        // the index build's posting order: (distance, id), NaNs already
        // normalised to +inf by the TopK kernel
        merged.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        merged.truncate(k);
        next.insert(id, merged);
    }
    next
}

/// The one holder of a shard's current-generation [`IndexSet`]: the
/// serving engine when the shard has ads (the engine owns its indices, so
/// storing them again would double every shard's resident index memory),
/// or the bare (ad-free, key-indices-only) set while the shard is adless.
#[derive(Debug, Clone)]
enum ShardIndexes {
    Serving(Arc<RetrievalEngine>),
    Adless(IndexSet),
}

impl ShardIndexes {
    /// Wrap a shard's freshly built, decoded or delta-updated indices in
    /// a serving engine — or park them while the shard holds no ads (at
    /// build time the hash left it empty, or a delta retired its last ad;
    /// a later delta can populate it again).
    fn new(indexes: IndexSet, topology: &ShardedEngineBuilder) -> Result<Self, RetrievalError> {
        if indexes.q2a.is_empty() && indexes.i2a.is_empty() {
            return Ok(ShardIndexes::Adless(indexes));
        }
        let engine = RetrievalEngine::builder()
            .index(topology.index)
            .retrieval(topology.retrieval)
            .build_from_indexes(indexes)?;
        Ok(ShardIndexes::Serving(Arc::new(engine)))
    }

    fn get(&self) -> &IndexSet {
        match self {
            ShardIndexes::Serving(engine) => engine.indexes(),
            ShardIndexes::Adless(indexes) => indexes,
        }
    }
}

/// Per-shard delta state: the shard's [`DeltaBuilder`] plus its
/// current-generation indices.
#[derive(Debug, Clone)]
struct ShardSlot {
    builder: DeltaBuilder,
    indexes: ShardIndexes,
}

/// Incremental index maintenance for a sharded deployment: one
/// `DeltaBuilder` per configured shard, with each applied delta routed
/// only to the shards [`ad_shard`] assigns its added / retired ads to.
/// Shards a delta does not touch contribute the *same* [`Arc`]'d engine
/// to the next generation — their index storage is reused
/// pointer-identically, which is what makes a small delta cheap at any
/// shard count.
///
/// The produced [`ShardedEngine`] generations are drop-in publishes for a
/// [`crate::EngineHandle`] (see [`crate::EngineHandle::publish_delta`]).
/// A shard whose last ad is retired simply leaves the active set — like
/// an adless shard at build time — and can re-enter when a later delta
/// adds ads hashing to it; only retiring the *whole* corpus is refused,
/// with the typed [`RetrievalError::EmptyIndex`].
#[derive(Debug, Clone)]
pub struct ShardedDeltaBuilder {
    topology: ShardedEngineBuilder,
    slots: Vec<ShardSlot>,
    /// The deployment's pool and hedge control: every generation this
    /// builder (or a clone of it) assembles serves on the same ones.
    serving: Arc<ServingState>,
}

impl ShardedDeltaBuilder {
    /// Split `inputs` across the topology's shards and seed every shard's
    /// first-generation index state with `4 + 2·shards` independent index
    /// builds, [`ShardedEngineBuilder::build_threads`] at a time: the four
    /// key-side indices once — every shard shares that copy, adless ones
    /// too, so a later delta can populate them — plus each shard's Q2A
    /// and I2A. Zero-sized topology, index or retrieval knobs and duplicate
    /// ids are rejected before any index work; the builds cannot fail.
    pub fn new(
        inputs: &IndexBuildInputs,
        topology: ShardedEngineBuilder,
    ) -> Result<Self, RetrievalError> {
        topology.validate()?;
        inputs.validate()?;
        let parts = shard_inputs(inputs, topology.shards);
        // build_threads 0 = auto: one thread per task up to the core count
        let width = match topology.build_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let built = IndexSet::build_sharing_key_side(&parts, topology.index, width);
        Self::from_slot_parts(topology, parts.into_iter().zip(built).collect())
    }

    /// The configured shard count.
    pub fn num_shards(&self) -> usize {
        self.topology.shards
    }

    /// The deployment topology every generation is assembled under —
    /// what the snapshot store persists so a reload reconstructs the
    /// identical cluster shape.
    pub(crate) fn topology(&self) -> &ShardedEngineBuilder {
        &self.topology
    }

    /// Every slot's current state in shard order — its post-delta build
    /// inputs and its current-generation [`IndexSet`] (served or adless).
    /// This is exactly what the snapshot writer persists per shard.
    pub(crate) fn slot_parts(&self) -> Vec<(&IndexBuildInputs, &IndexSet)> {
        self.slots
            .iter()
            .map(|slot| (slot.builder.inputs(), slot.indexes.get()))
            .collect()
    }

    /// Assemble a builder from per-shard inputs and their already-built
    /// index sets — freshly built by [`ShardedDeltaBuilder::new`], or
    /// decoded by [`crate::store`] on the warm path, where the expensive
    /// index construction is skipped: each slot only re-validates its
    /// inputs and wraps its [`IndexSet`] in a serving engine. `parts` must
    /// be in shard order, one entry per configured shard (the snapshot
    /// writer guarantees both).
    pub(crate) fn from_slot_parts(
        topology: ShardedEngineBuilder,
        parts: Vec<(IndexBuildInputs, IndexSet)>,
    ) -> Result<Self, RetrievalError> {
        topology.validate()?;
        debug_assert_eq!(parts.len(), topology.shards, "one slot part per shard");
        let mut slots = Vec::with_capacity(parts.len());
        for (inputs, indexes) in parts {
            slots.push(ShardSlot {
                builder: DeltaBuilder::new(inputs, topology.index)?,
                indexes: ShardIndexes::new(indexes, &topology)?,
            });
        }
        let serving = Arc::new(ServingState::new(&topology));
        let builder = ShardedDeltaBuilder {
            topology,
            slots,
            serving,
        };
        // an all-adless corpus cannot serve: fail the build, not the
        // first request
        builder.engine()?;
        Ok(builder)
    }

    /// Total ads currently in the corpus (across all shards).
    pub fn corpus_len(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| slot.builder.inputs().ads_qa.len())
            .sum()
    }

    /// Assemble the current generation's serving engine: one
    /// [`ShardedEngine`] over the per-shard [`Arc`]'d engines (active
    /// shards only, in shard order — exactly the builder's active-shard
    /// semantics).
    pub fn engine(&self) -> Result<ShardedEngine, RetrievalError> {
        let engines: Vec<Arc<RetrievalEngine>> = self
            .slots
            .iter()
            .filter_map(|slot| match &slot.indexes {
                ShardIndexes::Serving(engine) => Some(Arc::clone(engine)),
                ShardIndexes::Adless(_) => None,
            })
            .collect();
        if engines.is_empty() {
            return Err(RetrievalError::EmptyIndex { indices: "q2a+i2a" });
        }
        Ok(ShardedEngine::from_shard_engines(
            engines,
            &self.topology,
            Arc::clone(&self.serving),
        ))
    }

    /// Apply one corpus delta and return the next generation's engine.
    /// The delta is split by [`ad_shard`]; only the shards it actually
    /// touches rebuild their ad-side indices (incrementally, through
    /// their `DeltaBuilder`), every other shard's engine [`Arc`] is
    /// reused unchanged.
    ///
    /// All validation — duplicate added ids, unknown retired ads,
    /// mismatched added spaces, and retiring the entire corpus
    /// ([`RetrievalError::EmptyIndex`]) — happens before any state
    /// changes, so on `Err` the builder (and the currently published
    /// generation) are untouched.
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<ShardedEngine, RetrievalError> {
        validate_added_sets(delta)?;
        let shards = self.topology.shards;
        let added_qa = delta
            .added_ads_qa
            .partition_by(shards, |ad| ad_shard(ad, shards));
        let added_ia = delta
            .added_ads_ia
            .partition_by(shards, |ad| ad_shard(ad, shards));
        let mut retired: HashSet<u32> = HashSet::with_capacity(delta.retired_ads.len());
        let mut retired_by_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &ad in &delta.retired_ads {
            if retired.insert(ad) {
                retired_by_shard[ad_shard(ad, shards)].push(ad);
            }
        }
        // untouched shards (empty sub-deltas) drop out here: their engine
        // Arcs are reused verbatim
        let touched: Vec<(usize, IndexDelta)> = added_qa
            .into_iter()
            .zip(added_ia)
            .zip(retired_by_shard)
            .map(|((added_ads_qa, added_ads_ia), retired_ads)| IndexDelta {
                added_ads_qa,
                added_ads_ia,
                retired_ads,
            })
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .collect();
        for (s, sub) in &touched {
            self.slots[*s].builder.validate_delta(sub)?;
        }
        // refusing to retire the whole corpus keeps the failure atomic:
        // nothing below this point can fail on a validated delta, so no
        // shard commits one the others reject
        if self.corpus_len() - retired.len() + delta.added_ads_qa.len() == 0 {
            return Err(RetrievalError::EmptyIndex { indices: "q2a+i2a" });
        }
        for (s, sub) in &touched {
            let slot = &mut self.slots[*s];
            let next = slot.builder.apply(slot.indexes.get(), sub);
            slot.indexes = ShardIndexes::new(next, &self.topology)?;
        }
        self.engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Request, RetrievalResponse};
    use crate::test_fixtures::{
        random_points, shared_points, tiny_inputs, tiny_inputs_leaving_shard_adless,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn logical(
        result: Result<RetrievalResponse, RetrievalError>,
    ) -> Result<RetrievalResponse, RetrievalError> {
        result
            .map(RetrievalResponse::logical)
            .map_err(RetrievalError::logical)
    }

    /// The full single-corpus contract: every check, then the apply —
    /// what `ShardedDeltaBuilder::apply` does across its touched slots.
    fn checked_apply(
        builder: &mut DeltaBuilder,
        prev: &IndexSet,
        delta: &IndexDelta,
    ) -> Result<IndexSet, RetrievalError> {
        validate_added_sets(delta)?;
        builder.validate_delta(delta)?;
        Ok(builder.apply(prev, delta))
    }

    /// A delta adding `ids` (fresh random points, deterministic per seed)
    /// and retiring `retired`.
    fn make_delta(ids: std::ops::Range<u32>, seed: u64, retired: Vec<u32>) -> IndexDelta {
        IndexDelta {
            added_ads_qa: random_points(ids.clone(), seed),
            added_ads_ia: random_points(ids, seed + 1),
            retired_ads: retired,
        }
    }

    /// A delta retiring `retired` and adding two fresh ads (ids from
    /// `from` up) that both hash to shard `target` of `shards`.
    fn delta_into_shard(
        inputs: &IndexBuildInputs,
        (target, shards): (usize, usize),
        from: u32,
        seed: u64,
        retired: Vec<u32>,
    ) -> IndexDelta {
        let mut delta = IndexDelta::retire_only(inputs, retired);
        let points = random_points(0..2, seed);
        let ids = (from..).filter(|&id| ad_shard(id, shards) == target);
        for (i, id) in ids.take(2).enumerate() {
            delta
                .added_ads_qa
                .push(id, points.point(i), points.weight(i));
            delta
                .added_ads_ia
                .push(id, points.point(i), points.weight(i));
        }
        delta
    }

    /// Bit for bit: posting ids and the `f64::to_bits` of their distances.
    fn assert_indices_identical(a: &InvertedIndex, b: &InvertedIndex, name: &str) {
        assert_eq!(a.len(), b.len(), "{name}: key counts differ");
        let bits = |p: &Postings| -> Vec<(u32, u64)> {
            p.iter().map(|(id, d)| (*id, d.to_bits())).collect()
        };
        for (key, postings) in b.iter() {
            assert_eq!(
                a.get(*key).map(bits),
                Some(bits(postings)),
                "{name}: postings of key {key} differ (ids or distances)"
            );
        }
    }

    /// The cold-build acceptance property: building the key side once per
    /// deployment and every index as its own pool task changes no bit.
    /// For each backend at its exactness point, shard counts 1 / 2 / 4
    /// (with and without an adless shard) and build widths 1 and 4, every
    /// shard's six indices equal that shard's own full [`IndexSet::build`].
    #[test]
    fn cold_build_gives_every_shard_the_six_indices_of_its_own_full_build() {
        use amcad_mnn::{HnswConfig, IndexBackend, IvfConfig, QuantConfig};
        let backends = [
            IndexBackend::Exact,
            IndexBackend::Ivf(IvfConfig {
                num_clusters: 4,
                kmeans_iters: 4,
                nprobe: 4,
                seed: 7,
            }),
            IndexBackend::Hnsw(HnswConfig::saturated(64)),
            IndexBackend::Quant(QuantConfig {
                ksub: 8,
                train_iters: 4,
                rerank_k: 64,
                seed: 9,
            }),
        ];
        for inputs in [tiny_inputs(), tiny_inputs_leaving_shard_adless(4, 3)] {
            for backend in backends {
                let config = IndexBuildConfig {
                    top_k: 6,
                    threads: 1,
                    backend,
                };
                for shards in [1usize, 2, 4] {
                    let parts = shard_inputs(&inputs, shards);
                    for build_threads in [1usize, 4] {
                        let topology = ShardedEngine::builder()
                            .shards(shards)
                            .index(config)
                            .build_threads(build_threads);
                        let cold = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
                        for (s, (_, got)) in cold.slot_parts().into_iter().enumerate() {
                            let want = IndexSet::build(&parts[s], config).unwrap();
                            for (name, got, want) in [
                                ("q2q", &*got.q2q, &*want.q2q),
                                ("q2i", &*got.q2i, &*want.q2i),
                                ("i2q", &*got.i2q, &*want.i2q),
                                ("i2i", &*got.i2i, &*want.i2i),
                                ("q2a", &got.q2a, &want.q2a),
                                ("i2a", &got.i2a, &want.i2a),
                            ] {
                                let label = backend.label();
                                assert_indices_identical(
                                    got,
                                    want,
                                    &format!("{label}, shard {s} of {shards}, width {build_threads}: {name}"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn delta_postings_are_bitwise_identical_to_a_full_rebuild() {
        let inputs = tiny_inputs();
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        let prev = IndexSet::build(&inputs, config).unwrap();
        let mut builder = DeltaBuilder::new(inputs.clone(), config).unwrap();
        // retire ads that sit in many full posting lists (top_k 6 < 20
        // ads, so lists are at the cap and the backfill rescan must fire)
        let delta = make_delta(300..306, 41, vec![200, 203, 219]);
        let next = checked_apply(&mut builder, &prev, &delta).unwrap();
        let rebuilt = IndexSet::build(builder.inputs(), config).unwrap();
        assert_indices_identical(&next.q2a, &rebuilt.q2a, "q2a");
        assert_indices_identical(&next.i2a, &rebuilt.i2a, "i2a");
        // key-side indices ride along untouched
        assert_indices_identical(&next.q2q, &rebuilt.q2q, "q2q");
        assert_indices_identical(&next.i2i, &rebuilt.i2i, "i2i");
        // no retired ad survives anywhere
        for (_, postings) in next.q2a.iter().chain(next.i2a.iter()) {
            assert!(postings.iter().all(|(ad, _)| ![200, 203, 219].contains(ad)));
        }
        // and a second, chained delta stays exact (retire some of what
        // the first delta added)
        let delta2 = make_delta(310..313, 43, vec![301, 207]);
        let next2 = checked_apply(&mut builder, &next, &delta2).unwrap();
        let rebuilt2 = IndexSet::build(builder.inputs(), config).unwrap();
        assert_indices_identical(&next2.q2a, &rebuilt2.q2a, "q2a after chaining");
        assert_indices_identical(&next2.i2a, &rebuilt2.i2a, "i2a after chaining");
    }

    #[test]
    fn an_ad_can_be_replaced_by_retiring_and_adding_it_in_one_delta() {
        let inputs = tiny_inputs();
        let config = IndexBuildConfig {
            top_k: 5,
            threads: 1,
            ..Default::default()
        };
        let prev = IndexSet::build(&inputs, config).unwrap();
        let mut builder = DeltaBuilder::new(inputs, config).unwrap();
        // id 205 leaves and re-enters with new points in the same delta
        let delta = make_delta(205..206, 77, vec![205]);
        let next = checked_apply(&mut builder, &prev, &delta).unwrap();
        let rebuilt = IndexSet::build(builder.inputs(), config).unwrap();
        assert_indices_identical(&next.q2a, &rebuilt.q2a, "q2a");
        assert_indices_identical(&next.i2a, &rebuilt.i2a, "i2a");
        // the replacement genuinely moved the ad: its stored point changed
        let j = builder.inputs().ads_qa.index_of(205).unwrap();
        assert_ne!(
            builder.inputs().ads_qa.point(j),
            tiny_inputs()
                .ads_qa
                .point(tiny_inputs().ads_qa.index_of(205).unwrap()),
        );
    }

    /// The tentpole acceptance property: over random worlds, shard counts
    /// 1 / 2 / 4 and chained deltas, the delta-built engine serves
    /// rankings (and logical stats) exactly equal to a from-scratch
    /// rebuild of the post-delta corpus — both as a single engine and as
    /// a freshly built sharded engine.
    #[test]
    fn delta_built_rankings_match_a_from_scratch_rebuild_at_shard_counts_1_2_4() {
        let mut rng = StdRng::seed_from_u64(0xde17a);
        for case in 0..3u64 {
            let n_ads = 12 + case as u32 * 5;
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
            let top_k = 5 + (case as usize % 4);
            for shards in [1usize, 2, 4] {
                let topology = ShardedEngine::builder()
                    .shards(shards)
                    .top_k(top_k)
                    .threads(1)
                    .build_threads(1);
                let mut builder = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
                let mut truth = inputs.clone();
                for step in 0..2u32 {
                    // retire roughly a quarter of the current corpus,
                    // including (on step 1) ads the previous delta added
                    let retired: Vec<u32> = truth
                        .ads_qa
                        .ids()
                        .iter()
                        .copied()
                        .filter(|id| (id + case as u32 + step).is_multiple_of(4))
                        .collect();
                    let added_base = 300 + step * 50;
                    let delta = make_delta(
                        added_base..added_base + 4 + step,
                        900 + case * 10 + step as u64,
                        retired,
                    );
                    let engine = builder.apply(&delta).unwrap();
                    delta.apply_to(&mut truth);
                    let fresh_single = RetrievalEngine::builder()
                        .top_k(top_k)
                        .threads(1)
                        .build(&truth)
                        .unwrap();
                    let fresh_sharded = ShardedEngine::builder()
                        .shards(shards)
                        .top_k(top_k)
                        .threads(1)
                        .build_threads(1)
                        .build(&truth)
                        .unwrap();
                    assert_eq!(engine.active_shards(), fresh_sharded.active_shards());
                    for _ in 0..15 {
                        let request = Request {
                            query: rng.gen_range(0..12u32), // sometimes unknown
                            preclick_items: (0..rng.gen_range(0..3usize))
                                .map(|_| rng.gen_range(100..132u32))
                                .collect(),
                        };
                        let via_delta = logical(engine.retrieve(&request));
                        assert_eq!(
                            via_delta,
                            logical(fresh_single.retrieve(&request)),
                            "case {case}, {shards} shards, step {step}: delta diverged from the single rebuild"
                        );
                        assert_eq!(
                            via_delta,
                            logical(fresh_sharded.retrieve(&request)),
                            "case {case}, {shards} shards, step {step}: delta diverged from the sharded rebuild"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn untouched_shards_reuse_their_arc_storage_across_generations() {
        let inputs = IndexBuildInputs {
            ads_qa: random_points(200..230, 5),
            ads_ia: random_points(200..230, 8),
            ..tiny_inputs()
        };
        let shards = 4usize;
        let mut builder = ShardedDeltaBuilder::new(
            &inputs,
            ShardedEngine::builder().shards(shards).top_k(8).threads(1),
        )
        .unwrap();
        let gen1 = builder.engine().unwrap();
        assert_eq!(
            gen1.active_shards(),
            shards,
            "precondition: 30 ads must populate all 4 shards"
        );
        // a delta confined to one shard: retire one of its ads, add ads
        // that hash to the same shard
        let target = ad_shard(200, shards);
        let delta = delta_into_shard(&inputs, (target, shards), 300, 99, vec![200]);
        let gen2 = builder.apply(&delta).unwrap();
        assert_eq!(gen2.active_shards(), shards);
        for s in 0..shards {
            let reused = Arc::ptr_eq(gen1.shard(s).engine_shared(), gen2.shard(s).engine_shared());
            if s == target {
                assert!(!reused, "the touched shard must rebuild its indices");
            } else {
                assert!(reused, "untouched shard {s} must reuse its Arc storage");
            }
        }
        // an empty delta reuses every shard
        let gen3 = builder
            .apply(&IndexDelta::retire_only(&inputs, Vec::new()))
            .unwrap();
        for s in 0..shards {
            assert!(Arc::ptr_eq(
                gen2.shard(s).engine_shared(),
                gen3.shard(s).engine_shared(),
            ));
        }
    }

    /// The Arc-sharing property: the unchanging key side rides through
    /// shards and delta generations as reference-count bumps, never as
    /// copies — pointer identity proves it.
    #[test]
    fn key_side_indices_and_point_sets_are_shared_not_cloned() {
        let inputs = tiny_inputs();
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        // single-corpus delta: the next generation's key-side indices are
        // the previous generation's, pointer-identically
        let prev = IndexSet::build(&inputs, config).unwrap();
        let mut builder = DeltaBuilder::new(inputs.clone(), config).unwrap();
        let delta = make_delta(300..304, 11, vec![201]);
        let next = checked_apply(&mut builder, &prev, &delta).unwrap();
        assert!(Arc::ptr_eq(&prev.q2q, &next.q2q), "q2q must be shared");
        assert!(Arc::ptr_eq(&prev.q2i, &next.q2i), "q2i must be shared");
        assert!(Arc::ptr_eq(&prev.i2q, &next.i2q), "i2q must be shared");
        assert!(Arc::ptr_eq(&prev.i2i, &next.i2i), "i2i must be shared");
        // ... while the builder's key-side point sets still are the
        // caller's (retire/append only touched the ad side)
        assert!(Arc::ptr_eq(
            &inputs.queries_qq,
            &builder.inputs().queries_qq
        ));
        assert!(Arc::ptr_eq(&inputs.items_ia, &builder.inputs().items_ia));

        // sharded: one copy of the key side per deployment, not one per
        // shard — the six point sets are the caller's and the four indices
        // are built once, for every slot, the adless one included
        let (shards, adless) = (4usize, 3usize);
        let inputs = tiny_inputs_leaving_shard_adless(shards, adless);
        let mut sharded = ShardedDeltaBuilder::new(
            &inputs,
            ShardedEngine::builder().shards(shards).top_k(6).threads(1),
        )
        .unwrap();
        let is_adless = |sharded: &ShardedDeltaBuilder| {
            matches!(sharded.slots[adless].indexes, ShardIndexes::Adless(_))
        };
        let assert_one_key_side = |sharded: &ShardedDeltaBuilder, when: &str| {
            let first = sharded.slots[0].indexes.get();
            for (s, slot) in sharded.slots.iter().enumerate() {
                assert!(
                    slot.builder.inputs().shares_key_side_with(&inputs),
                    "{when}: shard {s} must share the deployment's key point sets"
                );
                assert!(
                    slot.indexes.get().shares_key_side_with(first),
                    "{when}: shard {s} must share the deployment's key indices"
                );
            }
        };
        assert!(is_adless(&sharded), "precondition: shard 3 holds no ads");
        assert_one_key_side(&sharded, "cold build");
        // ... a delta that touches a strict subset of the shards keeps it
        // that way, on the shards it rewrites and the ones it skips
        let one_shard = delta_into_shard(&inputs, (1, shards), 310, 13, vec![200]);
        sharded.apply(&one_shard).unwrap();
        assert_one_key_side(&sharded, "after a one-shard delta");
        // ... and so does the delta that populates the adless shard
        let populate = delta_into_shard(&inputs, (adless, shards), 330, 17, Vec::new());
        sharded.apply(&populate).unwrap();
        assert!(!is_adless(&sharded), "the delta populated shard 3");
        assert_one_key_side(&sharded, "after populating the adless shard");
    }

    /// The HNSW acceptance property: at its saturation point the graph
    /// search is exhaustive, so an HNSW-backed deployment serves
    /// byte-identically (logical view) through a single engine, sharded
    /// engines at 1 / 2 / 4 shards, a delta-published generation — and
    /// all of them equal the exact backend.
    #[test]
    fn saturated_hnsw_serves_identically_single_sharded_and_delta_published() {
        let inputs = tiny_inputs();
        // 20 seed ads + 6 added: saturate well above the final corpus size
        let backend = amcad_mnn::IndexBackend::Hnsw(amcad_mnn::HnswConfig::saturated(64));
        let top_k = 6;
        let exact = RetrievalEngine::builder()
            .top_k(top_k)
            .threads(1)
            .build(&inputs)
            .unwrap();
        let single = RetrievalEngine::builder()
            .backend(backend)
            .top_k(top_k)
            .threads(1)
            .build(&inputs)
            .unwrap();
        let delta = make_delta(300..306, 55, vec![200, 207]);
        let mut truth = inputs.clone();
        delta.apply_to(&mut truth);
        let requests: Vec<Request> = (0..12u32)
            .map(|q| Request {
                query: q % 10,
                preclick_items: vec![100 + q, 110 + (q % 5)],
            })
            .collect();
        for shards in [1usize, 2, 4] {
            let topology = || {
                ShardedEngine::builder()
                    .shards(shards)
                    .backend(backend)
                    .top_k(top_k)
                    .threads(1)
                    .build_threads(1)
            };
            let sharded = topology().build(&inputs).unwrap();
            let mut builder = ShardedDeltaBuilder::new(&inputs, topology()).unwrap();
            let published = builder.apply(&delta).unwrap();
            // post-delta ground truths, exact and HNSW
            let exact_post = RetrievalEngine::builder()
                .top_k(top_k)
                .threads(1)
                .build(&truth)
                .unwrap();
            let hnsw_post = RetrievalEngine::builder()
                .backend(backend)
                .top_k(top_k)
                .threads(1)
                .build(&truth)
                .unwrap();
            for request in &requests {
                // pre-delta: single == sharded == exact
                let want = logical(exact.retrieve(request));
                assert_eq!(logical(single.retrieve(request)), want, "{shards} shards");
                assert_eq!(logical(sharded.retrieve(request)), want, "{shards} shards");
                // post-delta: the delta-published HNSW generation equals
                // both from-scratch rebuilds
                let want_post = logical(exact_post.retrieve(request));
                assert_eq!(
                    logical(published.retrieve(request)),
                    want_post,
                    "{shards} shards: delta-published HNSW diverged from exact"
                );
                assert_eq!(logical(hnsw_post.retrieve(request)), want_post);
            }
        }
    }

    /// The quant acceptance property, mirroring the HNSW one: at its
    /// saturation point (corpus-wide `rerank_k`) every candidate reaches
    /// the exact rerank, so a quant-backed deployment serves byte-
    /// identically (logical view) through a single engine, sharded engines
    /// at 1 / 2 / 4 shards, and a delta-published generation — even though
    /// the delta path encodes new ads against *frozen* codebooks while a
    /// from-scratch rebuild retrains them.
    #[test]
    fn corpus_wide_rerank_quant_serves_identically_single_sharded_and_delta_published() {
        let inputs = tiny_inputs();
        // 20 seed ads + 6 added: rerank well above the final corpus size
        let backend = amcad_mnn::IndexBackend::Quant(amcad_mnn::QuantConfig {
            ksub: 8,
            train_iters: 4,
            rerank_k: 64,
            seed: 9,
        });
        let top_k = 6;
        let exact = RetrievalEngine::builder()
            .top_k(top_k)
            .threads(1)
            .build(&inputs)
            .unwrap();
        let single = RetrievalEngine::builder()
            .backend(backend)
            .top_k(top_k)
            .threads(1)
            .build(&inputs)
            .unwrap();
        let delta = make_delta(300..306, 55, vec![200, 207]);
        let mut truth = inputs.clone();
        delta.apply_to(&mut truth);
        let requests: Vec<Request> = (0..12u32)
            .map(|q| Request {
                query: q % 10,
                preclick_items: vec![100 + q, 110 + (q % 5)],
            })
            .collect();
        for shards in [1usize, 2, 4] {
            let topology = || {
                ShardedEngine::builder()
                    .shards(shards)
                    .backend(backend)
                    .top_k(top_k)
                    .threads(1)
                    .build_threads(1)
            };
            let sharded = topology().build(&inputs).unwrap();
            let mut builder = ShardedDeltaBuilder::new(&inputs, topology()).unwrap();
            let published = builder.apply(&delta).unwrap();
            // post-delta ground truths, exact and quant
            let exact_post = RetrievalEngine::builder()
                .top_k(top_k)
                .threads(1)
                .build(&truth)
                .unwrap();
            let quant_post = RetrievalEngine::builder()
                .backend(backend)
                .top_k(top_k)
                .threads(1)
                .build(&truth)
                .unwrap();
            for request in &requests {
                // pre-delta: single == sharded == exact
                let want = logical(exact.retrieve(request));
                assert_eq!(logical(single.retrieve(request)), want, "{shards} shards");
                assert_eq!(logical(sharded.retrieve(request)), want, "{shards} shards");
                // post-delta: the delta-published quant generation equals
                // both from-scratch rebuilds
                let want_post = logical(exact_post.retrieve(request));
                assert_eq!(
                    logical(published.retrieve(request)),
                    want_post,
                    "{shards} shards: delta-published quant diverged from exact"
                );
                assert_eq!(logical(quant_post.retrieve(request)), want_post);
            }
        }
    }

    #[test]
    fn delta_validation_rejects_duplicates_unknowns_and_mismatched_spaces() {
        let inputs = tiny_inputs();
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        let prev = IndexSet::build(&inputs, config).unwrap();
        let mut builder = DeltaBuilder::new(inputs.clone(), config).unwrap();
        // duplicate id within one added space
        let mut dup = make_delta(300..302, 1, Vec::new());
        let extra = random_points(300..301, 2);
        dup.added_ads_qa.push(300, extra.point(0), extra.weight(0));
        dup.added_ads_ia.push(300, extra.point(0), extra.weight(0));
        assert!(matches!(
            checked_apply(&mut builder, &prev, &dup).unwrap_err(),
            RetrievalError::DuplicateId {
                space: "delta added_ads_qa",
                id: 300
            }
        ));
        // adding an id the corpus already holds (without retiring it)
        let clash = make_delta(205..206, 3, Vec::new());
        assert!(matches!(
            checked_apply(&mut builder, &prev, &clash).unwrap_err(),
            RetrievalError::DuplicateId { id: 205, .. }
        ));
        // retiring an unknown ad
        let unknown = IndexDelta::retire_only(&inputs, vec![9000]);
        assert_eq!(
            checked_apply(&mut builder, &prev, &unknown).unwrap_err(),
            RetrievalError::UnknownAd { ad: 9000 }
        );
        // the two added spaces must agree on the id set
        let mut skewed = make_delta(300..302, 4, Vec::new());
        skewed.added_ads_ia = random_points(300..301, 5);
        assert!(matches!(
            checked_apply(&mut builder, &prev, &skewed).unwrap_err(),
            RetrievalError::InvalidConfig(_)
        ));
        // every rejection left the builder untouched: a valid apply still
        // matches the from-scratch rebuild exactly
        let valid = make_delta(300..303, 6, vec![201]);
        let next = checked_apply(&mut builder, &prev, &valid).unwrap();
        let rebuilt = IndexSet::build(builder.inputs(), config).unwrap();
        assert_indices_identical(&next.q2a, &rebuilt.q2a, "q2a after rejections");
        // ... and the sharded builder rejects with the same errors
        let mut sharded =
            ShardedDeltaBuilder::new(&inputs, ShardedEngine::builder().shards(2).threads(1))
                .unwrap();
        assert_eq!(
            sharded.apply(&unknown).unwrap_err(),
            RetrievalError::UnknownAd { ad: 9000 }
        );
        assert!(matches!(
            sharded.apply(&clash).unwrap_err(),
            RetrievalError::DuplicateId { id: 205, .. }
        ));
        // ... for the whole delta before any shard changes: valid adds on
        // shard 0 must not land when shard 1's half is rejected
        let stranger = (9000..).find(|&id| ad_shard(id, 2) == 1).unwrap();
        let straddling = delta_into_shard(&inputs, (0, 2), 400, 9, vec![stranger]);
        let before = sharded.corpus_len();
        assert_eq!(
            sharded.apply(&straddling).unwrap_err(),
            RetrievalError::UnknownAd { ad: stranger }
        );
        assert_eq!(sharded.corpus_len(), before);
    }

    /// The empty-after-delta regression tests: retiring every ad must
    /// degrade to the typed `EmptyIndex` / `ShardUnavailable` path — for
    /// the single-corpus builder, the sharded builder, and a partially
    /// emptied sharded deployment — never to a panic.
    #[test]
    fn retiring_every_ad_degrades_to_typed_errors_not_panics() {
        let inputs = tiny_inputs();
        let all_ads: Vec<u32> = inputs.ads_qa.ids().to_vec();
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        // index level: an all-retired corpus builds EMPTY ad indices
        // (exactly like a full rebuild over no ads) and the engine
        // assembly turns that into the typed EmptyIndex error
        let prev = IndexSet::build(&inputs, config).unwrap();
        let mut builder = DeltaBuilder::new(inputs.clone(), config).unwrap();
        let wipe = IndexDelta::retire_only(&inputs, all_ads.clone());
        let emptied = checked_apply(&mut builder, &prev, &wipe).unwrap();
        assert!(emptied.q2a.is_empty() && emptied.i2a.is_empty());
        assert_eq!(
            RetrievalEngine::builder()
                .index(config)
                .build_from_indexes(emptied)
                .unwrap_err(),
            RetrievalError::EmptyIndex { indices: "q2a+i2a" }
        );
        // engine level, single (1 shard) and sharded: refused atomically
        for shards in [1usize, 4] {
            let mut sharded = ShardedDeltaBuilder::new(
                &inputs,
                ShardedEngine::builder().shards(shards).top_k(6).threads(1),
            )
            .unwrap();
            assert_eq!(
                sharded.apply(&wipe).unwrap_err(),
                RetrievalError::EmptyIndex { indices: "q2a+i2a" },
                "{shards} shard(s): wiping the corpus must be a typed error"
            );
            // the refusal was atomic: the current generation still serves
            let engine = sharded.engine().unwrap();
            assert!(engine
                .retrieve(&Request {
                    query: 3,
                    preclick_items: vec![103],
                })
                .is_ok());
        }
        // emptying ONE shard is fine: it leaves the rotation and serving
        // matches a fresh rebuild of the reduced corpus
        let shards = 4usize;
        let mut sharded = ShardedDeltaBuilder::new(
            &inputs,
            ShardedEngine::builder().shards(shards).top_k(6).threads(1),
        )
        .unwrap();
        let before = sharded.engine().unwrap().active_shards();
        let target = ad_shard(all_ads[0], shards);
        let shard_ads: Vec<u32> = all_ads
            .iter()
            .copied()
            .filter(|&ad| ad_shard(ad, shards) == target)
            .collect();
        let drop_shard = IndexDelta::retire_only(&inputs, shard_ads.clone());
        let engine = sharded.apply(&drop_shard).unwrap();
        assert_eq!(engine.active_shards(), before - 1);
        let mut truth = inputs.clone();
        drop_shard.apply_to(&mut truth);
        let fresh = RetrievalEngine::builder()
            .top_k(6)
            .threads(1)
            .build(&truth)
            .unwrap();
        for q in 0..10u32 {
            let request = Request {
                query: q,
                preclick_items: vec![100 + q],
            };
            assert_eq!(
                logical(engine.retrieve(&request)),
                logical(fresh.retrieve(&request))
            );
        }
        // a later delta can repopulate the emptied shard
        let engine = sharded
            .apply(&delta_into_shard(
                &inputs,
                (target, shards),
                500,
                123,
                Vec::new(),
            ))
            .unwrap();
        assert_eq!(engine.active_shards(), before, "the shard re-entered");
        // and the replica-loss path on a delta-built generation stays the
        // familiar typed ShardUnavailable error
        engine.shard(0).fail_replica(0);
        assert!(matches!(
            engine
                .retrieve(&Request {
                    query: 3,
                    preclick_items: vec![103],
                })
                .unwrap_err(),
            RetrievalError::ShardUnavailable { shard: 0, .. }
        ));
    }

    /// One hedge control per deployment, not per generation: the
    /// `issued` / `wins` a runtime reports must survive a delta publish.
    #[test]
    fn hedge_control_and_its_counters_survive_a_delta_publish() {
        use std::time::Duration;
        let inputs = tiny_inputs();
        let mut sharded = ShardedDeltaBuilder::new(
            &inputs,
            ShardedEngine::builder()
                .shards(2)
                .replicas(2)
                .top_k(6)
                .threads(1)
                .hedge_delay(Duration::from_millis(2)),
        )
        .unwrap();
        let first = sharded.engine().unwrap();
        let control = Arc::clone(first.hedge_control().unwrap());
        // a straggler far past the hedge delay makes a hedge fire
        first.shard(0).delay_replica(0, Duration::from_millis(40));
        let request = Request {
            query: 3,
            preclick_items: vec![103],
        };
        for _ in 0..2 {
            first.retrieve(&request).unwrap();
        }
        let issued = control.issued();
        assert!(
            issued > 0,
            "one of two round-robin picks hits the straggler"
        );
        let next = sharded.apply(&make_delta(300..303, 7, vec![200])).unwrap();
        let after = next.hedge_control().unwrap();
        assert!(
            Arc::ptr_eq(&control, after),
            "every generation of a deployment shares one hedge control"
        );
        assert!(after.issued() >= issued, "the counters did not reset");
    }
}
