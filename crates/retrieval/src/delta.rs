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
//! * [`ShardedDeltaBuilder`] cold-builds a deployment and holds its key
//!   side once: the query / item point sets and the key-side indices,
//!   which every shard serves over. Next to it sits one slot per shard,
//!   holding only that shard's ad layouts and its engine. Each delta goes
//!   only to the slots [`ad_shard`] assigns its ads to, and a slot turns
//!   its previous ad-side indices plus its share of the delta into the
//!   next ones without re-running the full neighbour build; untouched
//!   shards keep their [`Arc`]'d engines pointer-identical across
//!   generations.
//! * [`crate::EngineHandle::publish_delta`] applies a delta through a
//!   builder and publishes the resulting generation with one snapshot
//!   swap — the zero-downtime incremental index update.
//!
//! ## Why the delta result is *exactly* a full rebuild
//!
//! A posting list is the `top_k` smallest `(distance, id)` pairs over the
//! candidate ads. A slot keeps its two ad spaces' [`ScanLayout`]s across
//! deltas, and for every key the up to `SLACK` pairs past its cut: its
//! kept list `L` — served postings, then slack — is its exact top-`|L|`,
//! and at least `top_k` long unless it holds every ad of the shard.
//! Retired ads are marked dead where they stand, added ads are appended to
//! the unbounded tail, and every key gets one exact scan. `L`'s survivors
//! `S` of the retire are the exact top-`|S|` over the ads that stay — any
//! other survivor was past `L`'s cut — so:
//!
//! * **seeded** — when `|S| ≥ top_k`, a top-`|S|` that starts from `S` and
//!   scans only the range this delta appended, which the seeded threshold
//!   mostly prunes at pass 1, is the exact top-`|S|` of the next corpus,
//!   and its first `top_k` the rebuild's list. When `L` held every ad of
//!   the shard, `S` is all the survivors and the same scan keeps the full
//!   `top_k + SLACK`. That case is read off `|L|` against the shard's live
//!   count before the delta, not off `|L| < top_k + SLACK`: a seeded scan
//!   shortens a list to `|S|`, so a short list need not hold the shard;
//! * **full** — any other key lost more than its slack held (or a list
//!   without slack lost a served entry, after a warm load or an
//!   approximate cold build), so ads past its old cut may now enter: it
//!   scans every live member, tail included, for `top_k + SLACK`, which
//!   refills its slack.
//!
//! Each result is cut at `top_k`: the served list and the new slack.
//! Distances are deterministic functions of the stored points and the top
//! K is ordered by `(distance, id)` with NaN as +inf, so either scan gives
//! the rebuild's list bit for bit. This module's tests assert it for
//! posting ids and distance bits, and for rankings and
//! [`crate::RetrievalStats::logical`] stats at shard counts 1 / 2 / 4.
//! A cover over members since retired still bounds the live ones. A slot
//! lays its live ads out again, in corpus order, past `RELAYOUT_SHARE`
//! stale members — at once after a warm load or an approximate cold build,
//! whose layouts are not laid out: a delta is an exact scan whatever the
//! backend, which at a backend's exactness point is the rebuild's list.
//!
//! The key-side indices (Q2Q, Q2I, I2Q, I2I) contain no ads: a deployment
//! holds one copy, which every shard and every delta generation shares.
//! Key churn still requires a full rebuild — the daily retrain path; delta
//! publishes cover the much more frequent corpus churn in between.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use amcad_mnn::{update_with_layout, IdHasher, InvertedIndex, MixedPointSet, Postings, ScanLayout};

use crate::engine::RetrievalEngine;
use crate::error::RetrievalError;
use crate::index_set::{
    counted, reject_duplicate_ids, reject_foreign_manifolds, same_ids, AdSide, IndexBuildInputs,
    IndexSet,
};
use crate::shard::{ad_shard, ShardedEngine, ShardedEngineBuilder};

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

/// A set of ad ids a shard holds, hashed like the keys of an
/// [`amcad_mnn::IdHashMap`]: a delta's retired ads, once
/// [`Slot::validate_delta`] has found each of them in the shard.
type IdSet = HashSet<u32, BuildHasherDefault<IdHasher>>;

/// The delta checks that do not depend on the current corpus: each added
/// space is duplicate-free and both add the same id set.
fn validate_added_sets(delta: &IndexDelta) -> Result<(), RetrievalError> {
    reject_duplicate_ids([
        ("delta added_ads_qa", &delta.added_ads_qa),
        ("delta added_ads_ia", &delta.added_ads_ia),
    ])?;
    if !same_ids(&delta.added_ads_qa, &delta.added_ads_ia) {
        return Err(RetrievalError::InvalidConfig(
            "delta must add every ad to both ad spaces (added_ads_qa and added_ads_ia id sets differ)".into(),
        ));
    }
    Ok(())
}

/// A slot lays its live ads out again once the members retired or
/// appended since its layout was laid out pass this share of it: dead
/// members are still read at pass 1, and every full scan reads the
/// appended tail without cluster bounds. Measured on a 2-vCPU x86-64 box,
/// c6k at seed 1 with [`SLACK`] 5, mean per delta over 40 deltas of 2 %,
/// three runs each: one shard on two threads 13–18 ms at 0.05, 11–13 at
/// 0.1, 10–11 at 0.2, 8.5–10 at 0.35 and 12–14 never laying out again;
/// four shards on one thread 47–56, 41–45, 33–44, 37–44 and 49–63 ms.
/// Without the slack, when a third of the keys scanned in full every
/// delta, the same runs took 26 ms at 0.1 to 51 never, and 119 to 195 ms.
const RELAYOUT_SHARE: f64 = 0.2;

/// Postings a slot keeps past the cut of every key's Q2A and I2A list,
/// so that a delta retiring up to this many of a key's postings seeds its
/// scan from the survivors instead of scanning the shard again. Seeded
/// scans wear the slack down and a full scan refills it. Measured on a
/// 2-vCPU x86-64 box, c6k at seed 1, four shards on one thread, 40 deltas
/// of 2 %: of the 327 680 key scans, 33.1 % were full without slack,
/// 9.4 % at 3, 6.2 % at 5, 4.1 % at 8 and 3.2 % at 10 (of the first three
/// deltas' 24 576, 249 at 3, 4 at 5, none at 8 or 10); the mean delta took
/// 106–131 ms, 42–61, 33–40, 29–31 and 31–35 ms over three runs each. The
/// wider cold scan costs the deployment's build (median of six) 0.365 s
/// without slack, 0.397 s at 5 (+9 %), 0.413 s at 8 (+13 %) and 0.432 s
/// at 10 (+18 %). Up to 5 the build pays 0.3 % for each point of
/// full-scan rate saved, from 5 to 8 about 2 %.
const SLACK: usize = 5;

/// A deployment's query / item side, held once by its
/// [`ShardedDeltaBuilder`]: the six key point sets and the four key-side
/// indices. None of it holds an ad, so every shard's engine and every
/// delta generation run on this one copy — [`Arc`] bumps, never clones.
#[derive(Debug, Clone)]
pub(crate) struct KeySide {
    pub(crate) queries_qq: Arc<MixedPointSet>,
    pub(crate) queries_qi: Arc<MixedPointSet>,
    pub(crate) items_qi: Arc<MixedPointSet>,
    pub(crate) queries_qa: Arc<MixedPointSet>,
    pub(crate) items_ii: Arc<MixedPointSet>,
    pub(crate) items_ia: Arc<MixedPointSet>,
    /// Q2Q, Q2I, I2Q and I2I; its Q2A and I2A are empty.
    pub(crate) indexes: IndexSet,
}

impl KeySide {
    /// The six point sets with their space names, in snapshot order.
    pub(crate) fn point_sets(&self) -> [(&'static str, &MixedPointSet); 6] {
        [
            ("queries_qq", &*self.queries_qq),
            ("queries_qi", &*self.queries_qi),
            ("items_qi", &*self.items_qi),
            ("queries_qa", &*self.queries_qa),
            ("items_ii", &*self.items_ii),
            ("items_ia", &*self.items_ia),
        ]
    }
}

/// One shard of a deployment: its two ad spaces, held as their scan
/// layouts, and, while it holds ads, the engine serving them over the
/// shared key side.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Q-A and I-A, kept across deltas: [`ScanLayout::unlaid`] after a warm
    /// load, an approximate cold build or for an adless shard.
    pub(crate) layouts: (ScanLayout, ScanLayout),
    /// Q-A and I-A: each key's at most [`SLACK`] postings past the cut of
    /// its exact list, the ones the served Q2A / I2A would hold next if
    /// `top_k` were larger. A key absent has none — every key after a warm
    /// load or an approximate cold build.
    slack: (InvertedIndex, InvertedIndex),
    /// `None` while the shard is adless: the hash left it empty, or a
    /// delta retired its last ad. A later delta can fill it again. The
    /// engine is the one holder of the shard's indices.
    engine: Option<Arc<RetrievalEngine>>,
}

impl Slot {
    /// The shard over these ad slices — moved into unlaid layouts with no
    /// slack unless the cold build kept its own — its Q2A and I2A served
    /// over its deployment's `keys`, without an engine when both are empty.
    pub(crate) fn new(
        (ads_qa, ads_ia): (MixedPointSet, MixedPointSet),
        ((q2a, i2a), kept): AdSide,
        keys: &KeySide,
        topology: &ShardedEngineBuilder,
    ) -> Result<Slot, RetrievalError> {
        let engine = serving(keys, q2a, i2a, topology)?;
        let (layouts, slack) = kept.unwrap_or_else(|| {
            let unlaid = (ScanLayout::unlaid(ads_qa), ScanLayout::unlaid(ads_ia));
            (unlaid, Default::default())
        });
        Ok(Slot {
            layouts,
            slack,
            engine,
        })
    }

    /// The shard's current six indices; `None` while it is adless.
    pub(crate) fn indexes(&self) -> Option<&IndexSet> {
        self.engine.as_deref().map(RetrievalEngine::indexes)
    }

    /// The delta checks that depend on this shard's ads, read off its live
    /// Q-A ids (the I-A ones are the same set):
    /// [`RetrievalError::UnknownAd`] for retiring an id the shard does
    /// not hold, [`RetrievalError::DuplicateId`] for an added id it
    /// already holds without retiring it. Together with
    /// [`validate_added_sets`] this is everything [`Slot::apply`] relies
    /// on; neither mutates, so a caller can check every shard a delta
    /// touches before changing any.
    fn validate_delta(&self, delta: &IndexDelta) -> Result<(), RetrievalError> {
        let retired: HashSet<u32> = delta.retired_ads.iter().copied().collect();
        let added = &delta.added_ads_qa;
        let named = |id: &u32| retired.contains(id) || added.contains_id(*id);
        let held: HashSet<u32> = self.layouts.0.live_ids().filter(named).collect();
        if let Some(&ad) = delta.retired_ads.iter().find(|ad| !held.contains(ad)) {
            return Err(RetrievalError::UnknownAd { ad });
        }
        let clash = added
            .ids()
            .iter()
            .find(|id| held.contains(id) && !retired.contains(id));
        match clash {
            Some(&id) => Err(RetrievalError::DuplicateId {
                space: "delta added_ads (already in corpus)",
                id,
            }),
            None => Ok(()),
        }
    }

    /// Move this shard to its next generation: retire and append `delta`
    /// on its layouts, laid out again from the survivors past
    /// [`RELAYOUT_SHARE`] stale, and scan its Q2A and I2A over them for
    /// the deployment's `keys`, each key seeded from its survivors where
    /// they still hold its list (see the module docs). `delta` must have
    /// passed [`validate_added_sets`] and [`Slot::validate_delta`];
    /// `topology` is the one every generation is built under — a
    /// different `top_k` would cut the served lists elsewhere.
    ///
    /// Retiring every ad of the shard is valid: its ad indices come out
    /// empty, exactly like a full rebuild over an adless corpus, and the
    /// shard drops its engine.
    fn apply(
        &mut self,
        keys: &KeySide,
        delta: &IndexDelta,
        topology: &ShardedEngineBuilder,
    ) -> Result<(), RetrievalError> {
        let retired: IdSet = delta.retired_ads.iter().copied().collect();
        let threads = topology.index.threads;
        let (qa, ia) = &mut self.layouts;
        // a key's list that is this long held every ad of the shard
        let live = qa.live();
        qa.retire(|id| retired.contains(&id));
        ia.retire(|id| retired.contains(&id));
        if qa.stale() > RELAYOUT_SHARE {
            // the survivors only: the added ads follow as the tail
            *qa = counted(qa.relaid(threads));
            *ia = counted(ia.relaid(threads));
        }
        let from_qa = qa.append(&delta.added_ads_qa);
        let from_ia = ia.append(&delta.added_ads_ia);
        let (k, kept) = (topology.index.top_k, topology.index.top_k + SLACK);
        let prev = self.engine.as_deref().map(RetrievalEngine::indexes);
        let next = |served: Option<&InvertedIndex>, slack: &InvertedIndex, keys, layout, from| {
            #[cfg(test)]
            let counts = [0, 0].map(std::sync::atomic::AtomicUsize::new);
            let mut index = update_with_layout(keys, layout, (kept, threads), from, |key| {
                let list = (served.and_then(|served| served.get(key)), slack.get(key));
                let seed = seed(list, &retired, live, (k, kept));
                // a count read once the scan has joined: Relaxed
                #[cfg(test)]
                counts[usize::from(seed.is_some())]
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                seed
            });
            #[cfg(test)]
            SCANS.with(|scans| {
                let [full, seeded] = counts.map(std::sync::atomic::AtomicUsize::into_inner);
                let (was_full, was_seeded) = scans.get();
                scans.set((was_full + full, was_seeded + seeded));
            });
            let past_the_cut = index.split_off(k);
            (index, past_the_cut)
        };
        let (q2a, slack_qa) = next(
            prev.map(|prev| &prev.q2a),
            &self.slack.0,
            &keys.queries_qa,
            qa,
            from_qa,
        );
        let (i2a, slack_ia) = next(
            prev.map(|prev| &prev.i2a),
            &self.slack.1,
            &keys.items_ia,
            ia,
            from_ia,
        );
        self.slack = (slack_qa, slack_ia);
        self.engine = serving(keys, q2a, i2a, topology)?;
        Ok(())
    }
}

/// A key's seed for a delta's scan of one ad space, `(survivors,
/// capacity)`, from its previous kept list `L` — `served` postings, then
/// slack — over the `live` ads the shard held before `retired` left, or
/// `None` for a full scan at `kept`. The survivors `S` are the exact
/// top-`|S|` over the ads that stay, so a seeded scan of the appended
/// range gives the exact top-`|S|` of the next corpus — capacity `|S|`,
/// which holds the served `top_k` when `|S| ≥ top_k` — or, when `L` held
/// all `live` ads, its exact top-`kept`.
fn seed(
    (served, slack): (Option<&Postings>, Option<&Postings>),
    retired: &IdSet,
    live: usize,
    (top_k, kept): (usize, usize),
) -> Option<(Postings, usize)> {
    let held = served.map_or(0, Vec::len) + slack.map_or(0, Vec::len);
    let survivors: Postings = served
        .into_iter()
        .chain(slack)
        .flatten()
        .filter(|(ad, _)| !retired.contains(ad))
        .copied()
        .collect();
    let capacity = match survivors.len() {
        _ if held == live => kept,
        n if n >= top_k => n,
        _ => return None,
    };
    Some((survivors, capacity))
}

#[cfg(test)]
thread_local! {
    /// Keys the deltas applied on this thread scanned in full and keys
    /// they seeded ([`seed`]): the tests count a delta's scans with it.
    static SCANS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// The serving engine over `keys`'s key-side indices (shared, not
/// copied) and these ad-side ones, or `None` when both are empty.
fn serving(
    keys: &KeySide,
    q2a: InvertedIndex,
    i2a: InvertedIndex,
    topology: &ShardedEngineBuilder,
) -> Result<Option<Arc<RetrievalEngine>>, RetrievalError> {
    if q2a.is_empty() && i2a.is_empty() {
        return Ok(None);
    }
    let engine = RetrievalEngine::builder()
        .index(topology.index)
        .retrieval(topology.retrieval)
        .build_from_indexes(keys.indexes.with_ad_side(q2a, i2a))?;
    Ok(Some(Arc::new(engine)))
}

/// Incremental index maintenance for a sharded deployment. It holds the
/// query / item side once — its point sets and key-side indices — next
/// to one slot per configured shard (the shard's ad layouts and engine),
/// and routes each applied delta only to the shards [`ad_shard`] assigns
/// its added / retired ads to. Shards a delta does not touch contribute
/// the *same* [`Arc`]'d engine to the next generation — their index
/// storage is reused pointer-identically, which is what makes a small
/// delta cheap at any shard count.
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
    keys: KeySide,
    slots: Vec<Slot>,
}

impl ShardedDeltaBuilder {
    /// Split the ads of `inputs` across the topology's shards by
    /// [`ad_shard`] and seed the first generation with `4 + 2·shards`
    /// independent index builds, [`ShardedEngineBuilder::build_threads`]
    /// at a time: the four key-side indices once — the deployment holds
    /// that copy, and every shard serves over it — plus each shard's Q2A
    /// and I2A, its slot keeping their ad layouts for its deltas. Zero
    /// topology, index or retrieval knobs and duplicate ids are rejected
    /// before any index work; the builds cannot fail.
    pub fn new(
        inputs: &IndexBuildInputs,
        topology: ShardedEngineBuilder,
    ) -> Result<Self, RetrievalError> {
        topology.validate()?;
        inputs.validate()?;
        let shards = topology.shards;
        let ads_qa = inputs
            .ads_qa
            .partition_by(shards, |ad| ad_shard(ad, shards));
        let ads_ia = inputs
            .ads_ia
            .partition_by(shards, |ad| ad_shard(ad, shards));
        // build_threads 0 = auto: one thread per task up to the core count
        let width = match topology.build_threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let ads: Vec<_> = ads_qa.iter().zip(&ads_ia).collect();
        let (indexes, ad_side) =
            IndexSet::build_sharing_key_side(inputs, &ads, topology.index, width, SLACK);
        let keys = KeySide {
            queries_qq: Arc::clone(&inputs.queries_qq),
            queries_qi: Arc::clone(&inputs.queries_qi),
            items_qi: Arc::clone(&inputs.items_qi),
            queries_qa: Arc::clone(&inputs.queries_qa),
            items_ii: Arc::clone(&inputs.items_ii),
            items_ia: Arc::clone(&inputs.items_ia),
            indexes,
        };
        let slots = ads_qa
            .into_iter()
            .zip(ads_ia)
            .zip(ad_side)
            .map(|(ads, ad_side)| Slot::new(ads, ad_side, &keys, &topology))
            .collect::<Result<_, _>>()?;
        Self::assemble(topology, keys, slots)
    }

    /// A deployment of `keys` and one slot per configured shard, in shard
    /// order — built by [`ShardedDeltaBuilder::new`], or decoded by
    /// [`crate::store`] on the warm path, which validated both. An
    /// all-adless corpus cannot serve: the assembly fails, not the first
    /// request.
    pub(crate) fn assemble(
        topology: ShardedEngineBuilder,
        keys: KeySide,
        slots: Vec<Slot>,
    ) -> Result<Self, RetrievalError> {
        debug_assert_eq!(slots.len(), topology.shards, "one slot per shard");
        let builder = ShardedDeltaBuilder {
            topology,
            keys,
            slots,
        };
        builder.engine()?;
        Ok(builder)
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

    /// The deployment's one key side.
    pub(crate) fn keys(&self) -> &KeySide {
        &self.keys
    }

    /// Every shard's slot, in shard order.
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Total ads currently in the corpus (across all shards).
    pub fn corpus_len(&self) -> usize {
        self.slots.iter().map(|slot| slot.layouts.0.live()).sum()
    }

    /// Assemble the current generation's serving engine: one
    /// [`ShardedEngine`] over the per-shard [`Arc`]'d engines (active
    /// shards only, in shard order — exactly the builder's active-shard
    /// semantics).
    pub fn engine(&self) -> Result<ShardedEngine, RetrievalError> {
        let engines: Vec<Arc<RetrievalEngine>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.engine.clone())
            .collect();
        if engines.is_empty() {
            return Err(RetrievalError::EmptyIndex { indices: "q2a+i2a" });
        }
        Ok(ShardedEngine::from_shard_engines(engines, &self.topology))
    }

    /// Apply one corpus delta and return the next generation's engine.
    /// The delta is split by [`ad_shard`]; only the shards it actually
    /// touches rebuild their ad-side indices (incrementally, over the
    /// deployment's key side), every other shard's engine [`Arc`] is
    /// reused unchanged.
    ///
    /// All validation — duplicate added ids, unknown retired ads,
    /// mismatched added spaces, added ads on another manifold than the
    /// keys they are scanned against, and retiring the entire corpus
    /// ([`RetrievalError::EmptyIndex`]) — happens before any state
    /// changes, so on `Err` the builder (and the currently published
    /// generation) are untouched.
    pub fn apply(&mut self, delta: &IndexDelta) -> Result<ShardedEngine, RetrievalError> {
        validate_added_sets(delta)?;
        reject_foreign_manifolds([
            (
                ("queries_qa", &*self.keys.queries_qa),
                ("delta added_ads_qa", &delta.added_ads_qa),
            ),
            (
                ("items_ia", &*self.keys.items_ia),
                ("delta added_ads_ia", &delta.added_ads_ia),
            ),
        ])?;
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
            self.slots[*s].validate_delta(sub)?;
        }
        // refusing to retire the whole corpus keeps the failure atomic:
        // nothing below this point can fail on a validated delta, so no
        // shard commits one the others reject
        if self.corpus_len() - retired.len() + delta.added_ads_qa.len() == 0 {
            return Err(RetrievalError::EmptyIndex { indices: "q2a+i2a" });
        }
        for (s, sub) in &touched {
            self.slots[*s].apply(&self.keys, sub, &self.topology)?;
        }
        self.engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Request, RetrievalResponse};
    use crate::index_set::IndexBuildConfig;
    use crate::test_fixtures::{
        assert_one_key_side, flat_points, random_points, shard_slice, shared_points, tiny_inputs,
        tiny_inputs_leaving_shard_adless,
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

    /// A one-shard deployment: the single-corpus delta path.
    fn one_shard(inputs: &IndexBuildInputs, config: IndexBuildConfig) -> ShardedDeltaBuilder {
        let topology = ShardedEngine::builder().index(config).build_threads(1);
        ShardedDeltaBuilder::new(inputs, topology).unwrap()
    }

    /// The six indices the one shard of `builder` serves (the key-only
    /// set while it is adless).
    fn served(builder: &ShardedDeltaBuilder) -> &IndexSet {
        builder.slots[0].indexes().unwrap_or(&builder.keys.indexes)
    }

    /// The builder's six key point sets are `inputs`'s, pointer-identically.
    fn assert_key_points_are(builder: &ShardedDeltaBuilder, inputs: &IndexBuildInputs, when: &str) {
        let keys = &builder.keys;
        for (name, got, want) in [
            ("queries_qq", &keys.queries_qq, &inputs.queries_qq),
            ("queries_qi", &keys.queries_qi, &inputs.queries_qi),
            ("items_qi", &keys.items_qi, &inputs.items_qi),
            ("queries_qa", &keys.queries_qa, &inputs.queries_qa),
            ("items_ii", &keys.items_ii, &inputs.items_ii),
            ("items_ia", &keys.items_ia, &inputs.items_ia),
        ] {
            assert!(Arc::ptr_eq(got, want), "{when}: {name} is a copy");
        }
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
        let bits = |p: &amcad_mnn::Postings| -> Vec<(u32, u64)> {
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
    /// ad sits in exactly the slot [`ad_shard`] names, the key side is
    /// the caller's and shared, and every shard's six indices equal that
    /// shard's own full [`IndexSet::build`].
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
                    for build_threads in [1usize, 4] {
                        let topology = ShardedEngine::builder()
                            .shards(shards)
                            .index(config)
                            .build_threads(build_threads);
                        let cold = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
                        assert_one_key_side(&cold, "cold build");
                        assert_key_points_are(&cold, &inputs, "cold build");
                        for (s, slot) in cold.slots.iter().enumerate() {
                            let own = shard_slice(&inputs, shards, s);
                            // the slot holds exactly the ads hashing to it
                            let (qa, ia) = &slot.layouts;
                            assert_eq!(corpus_ids(qa), own.ads_qa.ids(), "shard {s}");
                            assert_eq!(corpus_ids(ia), own.ads_ia.ids(), "shard {s}");
                            let want = IndexSet::build(&own, config).unwrap();
                            let got = slot.indexes().unwrap_or(&cold.keys.indexes);
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
        let mut builder = one_shard(&inputs, config);
        let mut truth = inputs.clone();
        // retire ads that sit in many full posting lists (top_k 6 < 20
        // ads, so lists are at the cap and the backfill rescan must fire)
        let delta = make_delta(300..306, 41, vec![200, 203, 219]);
        builder.apply(&delta).unwrap();
        delta.apply_to(&mut truth);
        let next = served(&builder);
        let rebuilt = IndexSet::build(&truth, config).unwrap();
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
        builder.apply(&delta2).unwrap();
        delta2.apply_to(&mut truth);
        let next2 = served(&builder);
        let rebuilt2 = IndexSet::build(&truth, config).unwrap();
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
        let mut builder = one_shard(&inputs, config);
        let mut truth = inputs;
        // id 205 leaves and re-enters with new points in the same delta
        let delta = make_delta(205..206, 77, vec![205]);
        builder.apply(&delta).unwrap();
        delta.apply_to(&mut truth);
        let next = served(&builder);
        let rebuilt = IndexSet::build(&truth, config).unwrap();
        assert_indices_identical(&next.q2a, &rebuilt.q2a, "q2a");
        assert_indices_identical(&next.i2a, &rebuilt.i2a, "i2a");
        // the replacement genuinely moved the ad: its stored point changed
        let ads_qa = &builder.slots[0].layouts.0;
        let order = ads_qa.corpus_order();
        let (_, j) = order.into_iter().find(|&(id, _)| id == 205).unwrap();
        let blocks = ads_qa.blocks();
        let old = tiny_inputs().ads_qa;
        let i = old.index_of(205).unwrap();
        let stored = (0..blocks.num_components()).flat_map(|m| blocks.coords_of(m, j));
        assert_ne!(stored.copied().collect::<Vec<_>>(), old.point(i));
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
        let mut builder = one_shard(&inputs, config);
        let prev = builder.engine().unwrap();
        builder.apply(&make_delta(300..304, 11, vec![201])).unwrap();
        let next = builder.engine().unwrap();
        let (prev, next) = (
            prev.shard(0).engine().indexes(),
            next.shard(0).engine().indexes(),
        );
        assert!(Arc::ptr_eq(&prev.q2q, &next.q2q), "q2q must be shared");
        assert!(Arc::ptr_eq(&prev.q2i, &next.q2i), "q2i must be shared");
        assert!(Arc::ptr_eq(&prev.i2q, &next.i2q), "i2q must be shared");
        assert!(Arc::ptr_eq(&prev.i2i, &next.i2i), "i2i must be shared");
        // ... while the builder's key-side point sets still are the
        // caller's (retire/append only touched the ad side)
        assert_key_points_are(&builder, &inputs, "after a delta");

        // sharded: one copy of the key side per deployment, not one per
        // shard — the six point sets are the caller's and the four indices
        // are built once, and every serving slot runs on them
        let (shards, adless) = (4usize, 3usize);
        let inputs = tiny_inputs_leaving_shard_adless(shards, adless);
        let mut sharded = ShardedDeltaBuilder::new(
            &inputs,
            ShardedEngine::builder().shards(shards).top_k(6).threads(1),
        )
        .unwrap();
        let is_adless = |sharded: &ShardedDeltaBuilder| sharded.slots[adless].engine.is_none();
        let assert_shared = |sharded: &ShardedDeltaBuilder, when: &str| {
            assert_one_key_side(sharded, when);
            assert_key_points_are(sharded, &inputs, when);
        };
        assert!(is_adless(&sharded), "precondition: shard 3 holds no ads");
        assert_shared(&sharded, "cold build");
        // ... a delta that touches a strict subset of the shards keeps it
        // that way, on the shards it rewrites and the ones it skips
        let one_shard = delta_into_shard(&inputs, (1, shards), 310, 13, vec![200]);
        sharded.apply(&one_shard).unwrap();
        assert_shared(&sharded, "after a one-shard delta");
        // ... and so does the delta that populates the adless shard
        let populate = delta_into_shard(&inputs, (adless, shards), 330, 17, Vec::new());
        sharded.apply(&populate).unwrap();
        assert!(!is_adless(&sharded), "the delta populated shard 3");
        assert_shared(&sharded, "after populating the adless shard");
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
        let mut builder = one_shard(&inputs, config);
        // duplicate id within one added space
        let mut dup = make_delta(300..302, 1, Vec::new());
        let extra = random_points(300..301, 2);
        dup.added_ads_qa.push(300, extra.point(0), extra.weight(0));
        dup.added_ads_ia.push(300, extra.point(0), extra.weight(0));
        assert!(matches!(
            builder.apply(&dup).unwrap_err(),
            RetrievalError::DuplicateId {
                space: "delta added_ads_qa",
                id: 300
            }
        ));
        // adding an id the corpus already holds (without retiring it)
        let clash = make_delta(205..206, 3, Vec::new());
        assert!(matches!(
            builder.apply(&clash).unwrap_err(),
            RetrievalError::DuplicateId { id: 205, .. }
        ));
        // retiring an unknown ad
        let unknown = IndexDelta::retire_only(&inputs, vec![9000]);
        assert_eq!(
            builder.apply(&unknown).unwrap_err(),
            RetrievalError::UnknownAd { ad: 9000 }
        );
        // the two added spaces must agree on the id set
        let mut skewed = make_delta(300..302, 4, Vec::new());
        skewed.added_ads_ia = random_points(300..301, 5);
        assert!(matches!(
            builder.apply(&skewed).unwrap_err(),
            RetrievalError::InvalidConfig(_)
        ));
        skewed.added_ads_ia = random_points(301..303, 5);
        assert!(matches!(
            builder.apply(&skewed).unwrap_err(),
            RetrievalError::InvalidConfig(_)
        ));
        // every rejection left the builder untouched: a valid apply still
        // matches the from-scratch rebuild exactly
        let valid = make_delta(300..303, 6, vec![201]);
        builder.apply(&valid).unwrap();
        let mut truth = inputs.clone();
        valid.apply_to(&mut truth);
        let rebuilt = IndexSet::build(&truth, config).unwrap();
        assert_indices_identical(&served(&builder).q2a, &rebuilt.q2a, "q2a after rejections");
        // ad 201 is gone though its layout still holds it as a dead member:
        // retiring it again is unknown, and adding it back is no clash
        assert!(builder.slots[0].layouts.0.stale() < RELAYOUT_SHARE);
        let again = IndexDelta::retire_only(&inputs, vec![201]);
        assert_eq!(
            builder.apply(&again).unwrap_err(),
            RetrievalError::UnknownAd { ad: 201 }
        );
        builder.apply(&make_delta(201..202, 7, Vec::new())).unwrap();
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

    /// Ads on another manifold than the keys they are scanned against are
    /// [`RetrievalError::InvalidConfig`]: at the cold build, before any
    /// index work, and in a delta, before its retire runs — a rejected
    /// delta leaves the corpus and the served rankings as they were.
    #[test]
    fn ads_on_a_foreign_manifold_are_rejected_at_build_and_in_a_delta() {
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        let topology = || ShardedEngine::builder().index(config).build_threads(1);
        // both ad spaces on a 3-dim flat manifold, the keys on 2 + 2
        let mut foreign_ads = tiny_inputs();
        foreign_ads.ads_qa = flat_points(200..220);
        foreign_ads.ads_ia = flat_points(200..220);
        // a key pair of one edge space apart
        let mut foreign_items = tiny_inputs();
        foreign_items.items_qi = Arc::new(flat_points(100..140));
        for inputs in [&foreign_ads, &foreign_items] {
            assert!(matches!(
                ShardedDeltaBuilder::new(inputs, topology()),
                Err(RetrievalError::InvalidConfig(_))
            ));
            assert!(matches!(
                IndexSet::build(inputs, config),
                Err(RetrievalError::InvalidConfig(_))
            ));
        }

        let inputs = tiny_inputs();
        let mut builder = one_shard(&inputs, config);
        let requests: Vec<Request> = (0..10)
            .map(|q| Request {
                query: q,
                preclick_items: vec![100 + q, 120 + q],
            })
            .collect();
        let serve = |builder: &ShardedDeltaBuilder| {
            let engine = builder.engine().unwrap();
            requests
                .iter()
                .map(|request| logical(engine.retrieve(request)))
                .collect::<Vec<_>>()
        };
        let before = serve(&builder);
        let delta = IndexDelta {
            added_ads_qa: flat_points(900..901),
            added_ads_ia: flat_points(900..901),
            retired_ads: vec![201],
        };
        assert!(matches!(
            builder.apply(&delta),
            Err(RetrievalError::InvalidConfig(_))
        ));
        assert_eq!(builder.corpus_len(), 20);
        assert_eq!(serve(&builder), before);
        // the I-A side alone is checked too
        let half = IndexDelta {
            added_ads_ia: flat_points(900..901),
            ..make_delta(900..901, 1, vec![201])
        };
        assert!(matches!(
            builder.apply(&half),
            Err(RetrievalError::InvalidConfig(_))
        ));
        assert_eq!(builder.corpus_len(), 20);
        assert_eq!(serve(&builder), before);
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
        // slot level: a slot whose every ad retires builds EMPTY ad
        // indices (exactly like a full rebuild over no ads) and drops its
        // engine, since the engine assembly turns that ad side into the
        // typed EmptyIndex error
        let builder = one_shard(&inputs, config);
        let mut slot = builder.slots[0].clone();
        let wipe = IndexDelta::retire_only(&inputs, all_ads.clone());
        slot.apply(&builder.keys, &wipe, &builder.topology).unwrap();
        assert!(slot.engine.is_none() && slot.layouts.0.live() == 0 && slot.layouts.1.live() == 0);
        assert_eq!(
            RetrievalEngine::builder()
                .index(config)
                .build_from_indexes(builder.keys.indexes.clone())
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

    /// The ids of a layout's live members, in corpus order.
    fn corpus_ids(layout: &ScanLayout) -> Vec<u32> {
        layout
            .corpus_order()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Every shard of `builder` serves the Q2A and I2A of a cold build of
    /// `truth` under the same topology, bit for bit, and is active
    /// exactly when that build's shard is; and the two seal to the same
    /// snapshot bytes, so the writer puts each shard's ads in corpus
    /// order however its layouts permute them.
    fn assert_matches_rebuild(builder: &ShardedDeltaBuilder, truth: &IndexBuildInputs, when: &str) {
        let rebuilt = ShardedDeltaBuilder::new(truth, builder.topology.clone()).unwrap();
        let bytes = |builder| crate::store::snapshot_bytes(builder, 1);
        assert!(
            bytes(builder) == bytes(&rebuilt),
            "{when}: snapshot bytes differ"
        );
        for (s, (got, want)) in builder.slots.iter().zip(&rebuilt.slots).enumerate() {
            match (got.indexes(), want.indexes()) {
                (Some(got), Some(want)) => {
                    assert_indices_identical(
                        &got.q2a,
                        &want.q2a,
                        &format!("{when}, shard {s}: q2a"),
                    );
                    assert_indices_identical(
                        &got.i2a,
                        &want.i2a,
                        &format!("{when}, shard {s}: i2a"),
                    );
                }
                (None, None) => {}
                _ => panic!("{when}: shard {s} is active on one side only"),
            }
        }
    }

    /// [`crate::index_set::counted`] calls on this thread since the last
    /// call.
    fn laid_out() -> usize {
        crate::index_set::LAID_OUT.with(|count| count.replace(0))
    }

    /// `(full, seeded)`: the keys the deltas applied on this thread
    /// scanned in full and the keys they seeded since the last call.
    fn scans() -> (usize, usize) {
        SCANS.with(|scans| scans.replace((0, 0)))
    }

    /// The at most [`SLACK`] postings past the cut of `key`'s Q2A list in
    /// shard `s`.
    fn slack_of(builder: &ShardedDeltaBuilder, s: usize, key: u32) -> usize {
        builder.slots[s].slack.0.get(key).map_or(0, Vec::len)
    }

    /// 200 ads and the tiny key side: every shard of four holds more ads
    /// than a key keeps.
    fn two_hundred_ads() -> IndexBuildInputs {
        IndexBuildInputs {
            ads_qa: random_points(1000..1200, 41),
            ads_ia: random_points(1000..1200, 42),
            ..tiny_inputs()
        }
    }

    /// A delta that takes at most [`SLACK`] postings from every key's
    /// kept list — served and past the cut — seeds every key and scans
    /// none in full, at 1 and 4 shards, though it takes postings from
    /// served lists; and the served indices are still a rebuild's.
    #[test]
    fn a_delta_within_every_keys_slack_scans_no_key_in_full() {
        let inputs = two_hundred_ads();
        for shards in [1usize, 4] {
            let topology = ShardedEngine::builder()
                .shards(shards)
                .top_k(6)
                .threads(1)
                .build_threads(1);
            let mut builder = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
            let retired: Vec<u32> = (1000..1200).step_by(25).collect();
            let lost =
                |list: &[(u32, f64)]| list.iter().filter(|(ad, _)| retired.contains(ad)).count();
            let mut lost_served = 0;
            for slot in &builder.slots {
                let indexes = slot.indexes().unwrap();
                for (served, slack) in
                    [(&indexes.q2a, &slot.slack.0), (&indexes.i2a, &slot.slack.1)]
                {
                    for (key, list) in served.iter() {
                        let past = slack.get(*key).map_or(0, |past| lost(past));
                        assert!(lost(list) + past <= SLACK, "{shards} shards: key {key}");
                        lost_served += lost(list);
                    }
                }
            }
            assert!(
                lost_served > 0,
                "{shards} shards: the delta takes no served posting"
            );
            let delta = make_delta(1300..1308, 43, retired.clone());
            scans();
            builder.apply(&delta).unwrap();
            let (full, seeded) = scans();
            assert_eq!(full, 0, "{shards} shards: keys scanned in full");
            assert_eq!(seeded, shards * (10 + 40), "{shards} shards: keys seeded");
            let mut truth = inputs.clone();
            delta.apply_to(&mut truth);
            assert_matches_rebuild(&builder, &truth, &format!("{shards} shards"));
        }
    }

    /// Retiring [`SLACK`] + 1 of one key's nearest ads over two deltas:
    /// the first seeds it from its survivors, leaving it fewer postings
    /// past the cut; the second leaves it fewer than `top_k` and scans it
    /// in full, which refills them. Both match a rebuild, bit for bit.
    #[test]
    fn a_key_that_loses_more_than_its_slack_is_scanned_in_full() {
        let inputs = tiny_inputs();
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        let mut builder = one_shard(&inputs, config);
        let mut truth = inputs.clone();
        let key = 3;
        assert_eq!(slack_of(&builder, 0, key), SLACK, "cold build");
        for (take, past_the_cut, full_scan) in [(3, SLACK - 3, false), (SLACK + 1 - 3, SLACK, true)]
        {
            let nearest = served(&builder).q2a.get(key).unwrap();
            let nearest = nearest.iter().take(take).map(|&(ad, _)| ad).collect();
            let delta = IndexDelta::retire_only(&inputs, nearest);
            scans();
            builder.apply(&delta).unwrap();
            let (full, _) = scans();
            delta.apply_to(&mut truth);
            // a seeded key keeps its survivors past the cut, a full scan
            // keeps SLACK of them
            assert_eq!(slack_of(&builder, 0, key), past_the_cut, "{take} retired");
            assert_eq!(full > 0, full_scan, "{take} retired: {full} full scans");
            assert_matches_rebuild(&builder, &truth, &format!("{take} retired"));
        }
    }

    /// A list that holds every ad of its shard but one is not the whole
    /// shard: a key of a shard of `top_k + SLACK + 1` ads that loses more
    /// than its slack is scanned in full, which finds the ad its list left
    /// out.
    #[test]
    fn a_list_one_short_of_its_shard_is_scanned_in_full_past_its_slack() {
        let config = IndexBuildConfig {
            top_k: 6,
            threads: 1,
            ..Default::default()
        };
        let mut inputs = tiny_inputs();
        let last = 200 + (6 + SLACK) as u32;
        inputs.ads_qa.retire(|id| id > last);
        inputs.ads_ia.retire(|id| id > last);
        let mut builder = one_shard(&inputs, config);
        let key = 3;
        assert_eq!(slack_of(&builder, 0, key), SLACK, "cold build");
        let nearest = served(&builder).q2a.get(key).unwrap();
        let nearest = nearest.iter().take(SLACK + 1).map(|&(ad, _)| ad).collect();
        let delta = IndexDelta::retire_only(&inputs, nearest);
        scans();
        builder.apply(&delta).unwrap();
        assert!(scans().0 > 0, "no key scanned in full");
        delta.apply_to(&mut inputs);
        assert_matches_rebuild(&builder, &inputs, "one ad past the kept list");
    }

    /// A warm-loaded builder has no slack, so its first delta scans in
    /// full every key that loses a served posting, as a builder without
    /// slack would; those scans refill the keys' slack, and a following
    /// small delta that takes from them scans none in full.
    #[test]
    fn a_warm_loaded_builder_refills_its_slack_by_full_scans() {
        let inputs = two_hundred_ads();
        let topology = ShardedEngine::builder()
            .top_k(6)
            .threads(1)
            .build_threads(1);
        let cold = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
        let path = std::env::temp_dir().join(format!(
            "amcad-delta-{}-warm-slack.snap",
            std::process::id()
        ));
        crate::store::write_snapshot(&path, &cold, 1).unwrap();
        let (_, mut builder) = crate::store::read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let slot = &builder.slots[0];
        assert!(slot.slack.0.is_empty() && slot.slack.1.is_empty());
        let mut truth = inputs.clone();
        let first = make_delta(1300..1320, 44, (1000..1200).step_by(10).collect());
        scans();
        builder.apply(&first).unwrap();
        assert!(
            scans().0 > 0,
            "the first delta after the load scans in full"
        );
        first.apply_to(&mut truth);
        assert_matches_rebuild(&builder, &truth, "first delta");
        // an ad that some served list holds, and only lists whose key has
        // postings past the cut again
        let slot = &builder.slots[0];
        let indexes = slot.indexes().unwrap();
        let holders = |ad: u32| {
            [(&indexes.q2a, &slot.slack.0), (&indexes.i2a, &slot.slack.1)]
                .into_iter()
                .flat_map(|(served, slack)| {
                    served
                        .iter()
                        .filter(move |(_, list)| list.iter().any(|&(id, _)| id == ad))
                        .map(move |(key, _)| slack.get(*key).is_some())
                })
                .collect::<Vec<_>>()
        };
        let ad = corpus_ids(&slot.layouts.0)
            .into_iter()
            .find(|&ad| {
                let holders = holders(ad);
                !holders.is_empty() && holders.iter().all(|&refilled| refilled)
            })
            .expect("an ad held only by refilled keys");
        let second = make_delta(1400..1401, 45, vec![ad]);
        scans();
        builder.apply(&second).unwrap();
        assert_eq!(scans().0, 0, "the second delta scans no key in full");
        second.apply_to(&mut truth);
        assert_matches_rebuild(&builder, &truth, "second delta");
    }

    /// A cold build lays out each ad space of each shard holding ads once
    /// and keeps the layouts; deltas below [`RELAYOUT_SHARE`] lay out
    /// nothing; a warm load lays out nothing until its first delta, which
    /// lays out the shards it touches.
    #[test]
    fn layouts_are_laid_out_once_per_ad_space_per_deployment() {
        let inputs = IndexBuildInputs {
            ads_qa: random_points(1000..1200, 21),
            ads_ia: random_points(1000..1200, 22),
            ..tiny_inputs_leaving_shard_adless(4, 3)
        };
        for shards in [1usize, 2, 4] {
            let topology = ShardedEngine::builder()
                .shards(shards)
                .top_k(6)
                .threads(1)
                .build_threads(1);
            laid_out();
            let mut builder = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
            let holding = builder
                .slots
                .iter()
                .filter(|slot| slot.layouts.0.live() > 0)
                .count();
            assert_eq!(laid_out(), 2 * holding, "{shards} shards: cold build");
            let mut truth = inputs.clone();
            // one ad out and one in per delta: 2 % of the corpus goes stale
            for step in 0..4u32 {
                let delta = make_delta(
                    1300 + step..1301 + step,
                    50 + u64::from(step),
                    vec![1000 + step],
                );
                builder.apply(&delta).unwrap();
                delta.apply_to(&mut truth);
                assert_eq!(laid_out(), 0, "{shards} shards: delta {step}");
            }
            assert_matches_rebuild(&builder, &truth, &format!("{shards} shards"));
            laid_out();
            let path = std::env::temp_dir().join(format!(
                "amcad-delta-{}-layouts-{shards}.snap",
                std::process::id()
            ));
            crate::store::write_snapshot(&path, &builder, 1).unwrap();
            let (_, mut loaded) = crate::store::read_snapshot(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(laid_out(), 0, "{shards} shards: warm load");
            let target = ad_shard(1100, shards);
            let delta = delta_into_shard(&inputs, (target, shards), 1400, 60, vec![1100]);
            loaded.apply(&delta).unwrap();
            delta.apply_to(&mut truth);
            assert_eq!(laid_out(), 2, "{shards} shards: first delta after the load");
            assert_matches_rebuild(&loaded, &truth, &format!("{shards} shards, loaded"));
        }
    }

    /// The delta ≡ rebuild property over a long life: 24 deltas of 5 %
    /// churn at shard counts 1 / 2 / 4, laying out again whenever the
    /// stale share passes [`RELAYOUT_SHARE`], with a retire-and-re-add
    /// replacement, a shard emptied and refilled, and the rest of the
    /// sequence applied to a save → load of the builder. After every delta
    /// each shard's Q2A and I2A equal a cold build's, ids and bits.
    #[test]
    fn a_long_delta_sequence_stays_bit_identical_to_a_rebuild() {
        let inputs = IndexBuildInputs {
            ads_qa: random_points(1000..1300, 31),
            ads_ia: random_points(1000..1300, 32),
            ..tiny_inputs()
        };
        for shards in [1usize, 2, 4] {
            let topology = ShardedEngine::builder()
                .shards(shards)
                .top_k(6)
                .threads(2)
                .build_threads(1);
            let mut builder = ShardedDeltaBuilder::new(&inputs, topology).unwrap();
            let mut truth = inputs.clone();
            let (mut next_id, mut relaid) = (2000u32, 0);
            for step in 0..24usize {
                let live = truth.ads_qa.ids().to_vec();
                let retired: Vec<u32> = live.iter().copied().skip(step % 20).step_by(20).collect();
                let seed = 100 + step as u64;
                let delta = match step {
                    // the first ad retired comes back with new points
                    3 => {
                        let mut delta = make_delta(next_id..next_id + 14, seed, retired.clone());
                        let points = random_points(0..1, seed + 7);
                        delta
                            .added_ads_qa
                            .push(retired[0], points.point(0), points.weight(0));
                        delta
                            .added_ads_ia
                            .push(retired[0], points.point(0), points.weight(0));
                        delta
                    }
                    // shard 1 loses its every ad, then gets two back
                    8 if shards > 1 => {
                        let home: Vec<u32> = live
                            .into_iter()
                            .filter(|&ad| ad_shard(ad, shards) == 1)
                            .collect();
                        IndexDelta::retire_only(&inputs, home)
                    }
                    9 if shards > 1 => {
                        delta_into_shard(&inputs, (1, shards), next_id, seed, retired)
                    }
                    _ => make_delta(next_id..next_id + 15, seed, retired),
                };
                next_id += 100;
                if step == 12 {
                    let path = std::env::temp_dir().join(format!(
                        "amcad-delta-{}-sequence-{shards}.snap",
                        std::process::id()
                    ));
                    crate::store::write_snapshot(&path, &builder, 1).unwrap();
                    builder = crate::store::read_snapshot(&path).unwrap().1;
                    std::fs::remove_file(&path).unwrap();
                }
                laid_out();
                builder.apply(&delta).unwrap();
                delta.apply_to(&mut truth);
                if step != 12 {
                    relaid += laid_out();
                }
                if shards > 1 && step == 8 {
                    assert!(builder.slots[1].engine.is_none(), "shard 1 was emptied");
                }
                assert_matches_rebuild(&builder, &truth, &format!("{shards} shards, delta {step}"));
            }
            assert!(builder.slots[1.min(shards - 1)].engine.is_some());
            assert!(relaid > 0, "{shards} shards: no delta laid out again");
        }
    }
}
