//! The two-layer online ad retrieval framework (Section IV-C.2).
//!
//! An online request carries the posed query and the user's recently clicked
//! items.  Layer 1 expands these raw keys into a richer key set through the
//! Q2Q / Q2I / I2Q / I2I indices; layer 2 retrieves ads for every key
//! through Q2A / I2A and merges the scores.  The paper's motivation for the
//! extra layer is traffic coverage: rewriting the query into several related
//! queries and items lets the system serve requests whose raw query has a
//! thin (or empty) Q2A posting list.
//!
//! [`TwoLayerRetriever`] is the layer logic, and its crate-internal
//! `serve` is the one request loop of the crate: expansion, the
//! batch-scope fetch cache, scoring and the per-request result live there
//! once, and both engine flavours — single node and sharded — pass in
//! only how a key's candidate prefix is fetched. Production callers go
//! through [`crate::RetrievalEngine`] / [`crate::ShardedEngine`], which add
//! backend selection and the deployment topology on top.

use std::collections::HashMap;
use std::ops::Deref;

use amcad_mnn::IdHashMap;

use crate::engine::{CoverageSource, ReplicaId, Request, RetrievalResponse, RetrievalStats};
use crate::error::RetrievalError;
use crate::index_set::IndexSet;

/// Configuration of the two-layer retrieval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalConfig {
    /// Expanded keys kept per first-layer index lookup.
    pub expansion_per_index: usize,
    /// Ads kept per second-layer key lookup.
    pub ads_per_key: usize,
    /// Final number of ads returned.
    pub final_top_n: usize,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            expansion_per_index: 5,
            ads_per_key: 10,
            final_top_n: 20,
        }
    }
}

/// Where a first-layer key came from — determines the coverage source
/// reported for the ads it retrieves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyOrigin {
    /// The raw query of the request.
    RawQuery,
    /// Expansion of the raw query through Q2Q / Q2I.
    QueryExpansion,
    /// A pre-click item, or its expansion through I2Q / I2I.
    Preclick,
}

/// An expanded retrieval key: a query or item node, the weight it
/// contributes to ads retrieved through it, and its provenance.
///
/// Crate-visible because the fetch strategies of
/// [`TwoLayerRetriever::serve`] are handed the keys to fetch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Key {
    pub(crate) id: u32,
    pub(crate) weight: f64,
    pub(crate) is_item: bool,
    pub(crate) origin: KeyOrigin,
}

/// A retrieved ad with its merged score (higher = better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievedAd {
    /// Ad node id.
    pub ad: u32,
    /// Merged retrieval score.
    pub score: f64,
}

/// What a fetch strategy returns for one request: the physical route it
/// took (empty on a single node) and the candidate prefix of every key it
/// was asked for, in the order asked — borrowed from the posting lists on
/// a single node, merged across shards (so owned) on a sharded engine.
pub(crate) type Fetched<L> = (Vec<ReplicaId>, Vec<L>);

/// Batch-scope fetch cache: `(is_item, key id)` → the key's slot in the
/// batch's list of fetched candidate prefixes.
///
/// Keyed SipHash (`RandomState`) on purpose: the keys include the raw
/// query and the pre-click ids, which the client chooses and whose count
/// it does not bound, so a seedless hash would let one crafted request
/// force quadratic probing. Maps keyed only by corpus ids — the posting
/// maps and the score accumulator — use [`IdHashMap`].
type FetchCache = HashMap<(bool, u32), usize>;

/// The two-layer retriever over a built [`IndexSet`].
#[derive(Debug, Clone)]
pub struct TwoLayerRetriever {
    indexes: IndexSet,
    config: RetrievalConfig,
}

/// Convert a mixed-curvature distance into a bounded similarity score.
/// A NaN distance (corrupt posting) maps to score 0 so it can never
/// outrank a real candidate; `.max(0.0)` would silently discard the NaN
/// and hand it the maximum score instead.
#[inline]
fn distance_to_score(distance: f64) -> f64 {
    if distance.is_nan() {
        return 0.0;
    }
    1.0 / (1.0 + distance.max(0.0))
}

impl TwoLayerRetriever {
    /// Create a retriever.
    pub fn new(indexes: IndexSet, config: RetrievalConfig) -> Self {
        TwoLayerRetriever { indexes, config }
    }

    /// The retrieval configuration.
    pub fn config(&self) -> &RetrievalConfig {
        &self.config
    }

    /// The underlying index set.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// First layer: expand the raw query and pre-click items into a weighted
    /// key set, appended to the caller-owned `keys` scratch buffer (cleared
    /// first) so batch callers reuse one allocation. Counts postings scanned
    /// into `stats`.
    fn expand_keys_into(
        &self,
        query: u32,
        preclick_items: &[u32],
        stats: &mut RetrievalStats,
        keys: &mut Vec<Key>,
    ) {
        let k = self.config.expansion_per_index;
        keys.clear();
        // the raw query itself carries full weight
        keys.push(Key {
            id: query,
            weight: 1.0,
            is_item: false,
            origin: KeyOrigin::RawQuery,
        });
        if let Some(postings) = self.indexes.q2q.get(query) {
            for (q, d) in postings.iter().take(k) {
                stats.postings_scanned += 1;
                keys.push(Key {
                    id: *q,
                    weight: distance_to_score(*d),
                    is_item: false,
                    origin: KeyOrigin::QueryExpansion,
                });
            }
        }
        if let Some(postings) = self.indexes.q2i.get(query) {
            for (i, d) in postings.iter().take(k) {
                stats.postings_scanned += 1;
                keys.push(Key {
                    id: *i,
                    weight: distance_to_score(*d),
                    is_item: true,
                    origin: KeyOrigin::QueryExpansion,
                });
            }
        }
        for &item in preclick_items {
            keys.push(Key {
                id: item,
                weight: 1.0,
                is_item: true,
                origin: KeyOrigin::Preclick,
            });
            if let Some(postings) = self.indexes.i2q.get(item) {
                for (q, d) in postings.iter().take(k) {
                    stats.postings_scanned += 1;
                    keys.push(Key {
                        id: *q,
                        weight: 0.8 * distance_to_score(*d),
                        is_item: false,
                        origin: KeyOrigin::Preclick,
                    });
                }
            }
            if let Some(postings) = self.indexes.i2i.get(item) {
                for (i, d) in postings.iter().take(k) {
                    stats.postings_scanned += 1;
                    keys.push(Key {
                        id: *i,
                        weight: 0.8 * distance_to_score(*d),
                        is_item: true,
                        origin: KeyOrigin::Preclick,
                    });
                }
            }
        }
        stats.keys_expanded = keys.len();
    }

    /// Second-layer candidates of one key: the prefix of its Q2A / I2A
    /// posting list the configured `ads_per_key` cut admits. Borrowed
    /// straight from the index — no copy — and already sorted by the index
    /// build's `(distance, id)` order, which is what lets shard-local
    /// prefixes be merged back into the exact global prefix.
    pub(crate) fn key_candidates(&self, key: &Key, per_key: usize) -> &[(u32, f64)] {
        let postings = if key.is_item {
            self.indexes.i2a.get(key.id)
        } else {
            self.indexes.q2a.get(key.id)
        };
        match postings {
            Some(postings) => &postings[..per_key.min(postings.len())],
            None => &[],
        }
    }

    /// The request loop — the one place a request is served, whatever the
    /// deployment. Per request: layer 1 expands the keys, `fetch` supplies
    /// the candidate prefixes of the keys no earlier request of the batch
    /// fetched (and the route it took to get them), layer 2 scores.
    ///
    /// The candidate prefix of each distinct `(layer, key)` is fetched once
    /// per batch, and its scan is billed to the request that first needed
    /// it — once per occurrence there, so a key repeated *within* that
    /// request re-counts exactly as an uncached lookup would, and the
    /// batch's summed `postings_scanned` is the true deduplicated work of
    /// the later requests. Rankings never depend on the batch around a
    /// request.
    ///
    /// `fetch` runs once per request, also when every key is cached
    /// (routing is per request), and its error is that request's result
    /// alone. The two strategies: a single node borrows its own posting
    /// prefixes ([`TwoLayerRetriever::serve_local`]); the sharded engine
    /// k-way merges every shard's borrowed prefix inline.
    pub(crate) fn serve<L: Deref<Target = [(u32, f64)]>>(
        &self,
        requests: &[Request],
        mut fetch: impl FnMut(&[Key]) -> Result<Fetched<L>, RetrievalError>,
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        // scratch reused across the batch, pre-sized for its widest request
        // (a raw key and its two expansions, per query and pre-click item)
        // so that serving a lone request never regrows a buffer
        let per_raw_key = 1 + 2 * self.config.expansion_per_index;
        let widest = requests
            .iter()
            .map(|r| (1 + r.preclick_items.len()) * per_raw_key)
            .max()
            .unwrap_or(0);
        let mut cache: FetchCache = HashMap::with_capacity(widest);
        // slot → (index of the request that fetched it, the prefix)
        let mut lists: Vec<(usize, L)> = Vec::with_capacity(widest);
        let mut keys: Vec<Key> = Vec::with_capacity(widest);
        let mut slots: Vec<usize> = Vec::with_capacity(widest);
        let mut missing: Vec<Key> = Vec::with_capacity(widest);
        let mut scratch: IdHashMap<f64> = IdHashMap::with_capacity_and_hasher(
            widest * self.config.ads_per_key,
            Default::default(),
        );
        let mut out = Vec::with_capacity(requests.len());
        for (r, request) in requests.iter().enumerate() {
            let mut stats = RetrievalStats::default();
            self.expand_keys_into(
                request.query,
                &request.preclick_items,
                &mut stats,
                &mut keys,
            );
            // a key nobody fetched yet takes the next free slot, which the
            // fetch below fills in the same order
            slots.clear();
            missing.clear();
            for key in &keys {
                let next = lists.len() + missing.len();
                let slot = *cache.entry((key.is_item, key.id)).or_insert(next);
                if slot == next {
                    missing.push(*key);
                }
                slots.push(slot);
            }
            let route = match fetch(&missing) {
                Ok((route, fetched)) => {
                    debug_assert_eq!(fetched.len(), missing.len());
                    lists.extend(fetched.into_iter().map(|list| (r, list)));
                    route
                }
                Err(e) => {
                    for key in &missing {
                        cache.remove(&(key.is_item, key.id));
                    }
                    out.push(Err(e));
                    continue;
                }
            };
            for &slot in &slots {
                let (first, list) = &lists[slot];
                if *first == r {
                    stats.postings_scanned += list.len();
                }
            }
            let ads = score_candidates(
                keys.iter().zip(slots.iter().map(|&slot| &*lists[slot].1)),
                self.config.final_top_n,
                &mut scratch,
                &mut stats,
            );
            stats.served_by = route;
            // a request that reached no ad is a typed error carrying the
            // work it performed, never a silent empty response
            out.push(if ads.is_empty() {
                Err(RetrievalError::NoCoverage {
                    query: request.query,
                    stats,
                })
            } else {
                Ok(RetrievalResponse { ads, stats })
            });
        }
        out
    }

    /// The single-node fetch strategy: every key's candidate prefix is
    /// borrowed straight from this node's own Q2A / I2A — no copy, no
    /// route, no way to fail.
    pub(crate) fn serve_local(
        &self,
        requests: &[Request],
    ) -> Vec<Result<RetrievalResponse, RetrievalError>> {
        let per_key = self.config.ads_per_key;
        self.serve(requests, |keys| {
            let prefixes = keys.iter().map(|key| self.key_candidates(key, per_key));
            Ok((Vec::new(), prefixes.collect()))
        })
    }

    /// Serve one request, reporting per-request statistics: query +
    /// pre-click items → (ranked ads, stats). The single-node request
    /// loop's batch of one; at this level an uncovered request is an empty
    /// ranking, not an error.
    pub fn retrieve_with_stats(
        &self,
        query: u32,
        preclick_items: &[u32],
    ) -> (Vec<RetrievedAd>, RetrievalStats) {
        let request = Request {
            query,
            preclick_items: preclick_items.to_vec(),
        };
        match self.serve_local(std::slice::from_ref(&request)).pop() {
            Some(Ok(response)) => (response.ads, response.stats),
            Some(Err(RetrievalError::NoCoverage { stats, .. })) => (Vec::new(), stats),
            other => unreachable!("a node cannot fail to borrow its own postings: {other:?}"),
        }
    }

    /// Serve one request: query + pre-click items → ranked ads.
    pub fn retrieve(&self, query: u32, preclick_items: &[u32]) -> Vec<RetrievedAd> {
        self.retrieve_with_stats(query, preclick_items).0
    }

    /// Single-layer baseline: retrieve ads using only the raw query's Q2A
    /// posting list (what a conventional embedding-based retrieval channel
    /// would do).  Used to quantify the coverage gain of the second layer.
    pub fn retrieve_single_layer(&self, query: u32) -> Vec<RetrievedAd> {
        let mut ads: Vec<RetrievedAd> = self
            .indexes
            .q2a
            .get(query)
            .map(|postings| {
                postings
                    .iter()
                    .take(self.config.final_top_n)
                    .map(|(ad, d)| RetrievedAd {
                        ad: *ad,
                        score: distance_to_score(*d),
                    })
                    .collect()
            })
            .unwrap_or_default();
        ads.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.ad.cmp(&b.ad)));
        ads
    }
}

/// Second-layer scoring: merge per-key candidate lists into a ranked ad
/// list. The score of an ad reached through several keys is the maximum
/// of its per-key scores — rewriting should not double-count popularity.
/// Tracks which key origins contributed candidates, so the reported
/// coverage source answers "would this request be covered without the
/// expansion / pre-click channels?".
///
/// `keyed` yields one `(key, candidate list)` pair per key occurrence.
/// Scan counting is the *caller's* job — done where the candidates are
/// fetched, so deduplicated fetches are not double-counted here.
/// `merged_scratch` is a reusable accumulator (cleared on entry). Its keys
/// are ad ids read out of postings, which only the corpus chooses, so it
/// hashes with the seedless [`IdHashMap`] hasher.
///
/// The ranking keeps the `final_top_n` best by (score desc, ad asc) — a
/// total order over distinct ads — with a selection and a sort of the
/// kept prefix, not a sort of every merged candidate; the output is the
/// same as sort-then-truncate.
fn score_candidates<'k>(
    keyed: impl Iterator<Item = (&'k Key, &'k [(u32, f64)])>,
    final_top_n: usize,
    merged_scratch: &mut IdHashMap<f64>,
    stats: &mut RetrievalStats,
) -> Vec<RetrievedAd> {
    let mut origins: (bool, bool, bool) = (false, false, false);
    merged_scratch.clear();
    for (key, list) in keyed {
        if !list.is_empty() {
            match key.origin {
                KeyOrigin::RawQuery => origins.0 = true,
                KeyOrigin::QueryExpansion => origins.1 = true,
                KeyOrigin::Preclick => origins.2 = true,
            }
        }
        for (ad, d) in list.iter() {
            let score = key.weight * distance_to_score(*d);
            let entry = merged_scratch.entry(*ad).or_insert(f64::NEG_INFINITY);
            if score > *entry {
                *entry = score;
            }
        }
    }
    let mut ads: Vec<RetrievedAd> = merged_scratch
        .iter()
        .map(|(&ad, &score)| RetrievedAd { ad, score })
        .collect();
    // total_cmp instead of partial_cmp().unwrap(): scores are NaN-free
    // (distance_to_score maps NaN to 0) but the order must stay
    // panic-free for any f64 regardless
    let order =
        |a: &RetrievedAd, b: &RetrievedAd| b.score.total_cmp(&a.score).then(a.ad.cmp(&b.ad));
    if ads.len() > final_top_n {
        if let Some(nth) = final_top_n.checked_sub(1) {
            ads.select_nth_unstable_by(nth, order);
        }
        ads.truncate(final_top_n);
    }
    ads.sort_unstable_by(order);
    stats.coverage = if origins.0 {
        CoverageSource::DirectQuery
    } else if origins.1 {
        CoverageSource::ExpandedKeys
    } else if origins.2 {
        CoverageSource::PreclickItems
    } else {
        CoverageSource::None
    };
    ads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_set::{IndexBuildConfig, IndexSet};
    use crate::test_fixtures::{random_points, shared_points, tiny_inputs};

    fn retriever() -> TwoLayerRetriever {
        let indexes = IndexSet::build(
            &tiny_inputs(),
            IndexBuildConfig {
                top_k: 8,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        TwoLayerRetriever::new(indexes, RetrievalConfig::default())
    }

    /// Unwrap a covered batch into the `(ads, stats)` pairs
    /// `retrieve_with_stats` reports.
    fn served(
        batch: Vec<Result<RetrievalResponse, RetrievalError>>,
    ) -> Vec<(Vec<RetrievedAd>, RetrievalStats)> {
        batch
            .into_iter()
            .map(|result| result.map(|r| (r.ads, r.stats)).unwrap())
            .collect()
    }

    #[test]
    fn retrieval_returns_ranked_ads_from_the_ad_id_range() {
        let r = retriever();
        let ads = r.retrieve(3, &[101, 115]);
        assert!(!ads.is_empty());
        assert!(ads.len() <= r.config().final_top_n);
        for w in ads.windows(2) {
            assert!(w[0].score >= w[1].score, "ads must be sorted by score");
        }
        assert!(ads.iter().all(|a| (200..220).contains(&a.ad)));
        // no duplicates
        let mut ids: Vec<u32> = ads.iter().map(|a| a.ad).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ads.len());
    }

    #[test]
    fn two_layer_covers_at_least_as_much_as_single_layer() {
        let r = retriever();
        for q in 0..10u32 {
            let single = r.retrieve_single_layer(q);
            let two = r.retrieve(q, &[100]);
            assert!(two.len() >= single.len().min(r.config().final_top_n));
        }
    }

    #[test]
    fn unknown_query_without_preclicks_yields_nothing_but_preclicks_recover_coverage() {
        let r = retriever();
        let unknown_query = 9999;
        assert!(r.retrieve(unknown_query, &[]).is_empty());
        let (with_preclick, stats) = r.retrieve_with_stats(unknown_query, &[105]);
        assert!(
            !with_preclick.is_empty(),
            "pre-click items must provide coverage for unseen queries"
        );
        assert_eq!(
            stats.coverage,
            CoverageSource::PreclickItems,
            "coverage must be attributed to the pre-click channel"
        );
    }

    #[test]
    fn scores_are_bounded_and_positive() {
        let r = retriever();
        for ad in r.retrieve(1, &[120]) {
            assert!(ad.score > 0.0 && ad.score <= 1.0 + 1e-12);
        }
        assert_eq!(distance_to_score(0.0), 1.0);
        assert!(distance_to_score(10.0) < 0.1);
    }

    #[test]
    fn stats_report_expansion_and_scan_work() {
        let r = retriever();
        let (ads, stats) = r.retrieve_with_stats(2, &[101]);
        assert!(!ads.is_empty());
        // raw query + raw preclick + up to 4 * expansion_per_index
        assert!(stats.keys_expanded >= 2);
        assert!(
            stats.keys_expanded <= 2 + 4 * r.config().expansion_per_index,
            "got {}",
            stats.keys_expanded
        );
        assert!(stats.postings_scanned >= ads.len());
        assert_eq!(stats.coverage, CoverageSource::DirectQuery);
    }

    #[test]
    fn batch_dedup_cuts_second_layer_scans_without_changing_rankings() {
        let r = retriever();
        let requests: Vec<Request> = (0..4)
            .map(|_| Request {
                query: 3,
                preclick_items: vec![101, 115],
            })
            .collect();
        let batch = served(r.serve_local(&requests));
        let (single_ads, single_stats) = r.retrieve_with_stats(3, &[101, 115]);
        assert!(single_stats.postings_scanned > single_stats.keys_expanded);
        for (ads, stats) in &batch {
            assert_eq!(ads, &single_ads, "dedup must not change the ranking");
            assert_eq!(stats.coverage, single_stats.coverage);
            assert_eq!(stats.keys_expanded, single_stats.keys_expanded);
        }
        // the first request pays the full scan bill ...
        assert_eq!(batch[0].1, single_stats);
        // ... repeats share its second-layer fetches, so they scan strictly
        // fewer postings and the batch is measurably cheaper than N singles
        for (_, stats) in &batch[1..] {
            assert!(
                stats.postings_scanned < single_stats.postings_scanned,
                "shared keys must not be re-scanned ({} vs {})",
                stats.postings_scanned,
                single_stats.postings_scanned
            );
        }
        let batch_total: usize = batch.iter().map(|(_, s)| s.postings_scanned).sum();
        assert!(
            batch_total < requests.len() * single_stats.postings_scanned,
            "batch total {batch_total} must beat {} independent scans",
            requests.len() * single_stats.postings_scanned
        );
    }

    #[test]
    fn batch_with_distinct_requests_matches_the_single_path_per_request() {
        let r = retriever();
        let requests: Vec<Request> = (0..10u32)
            .map(|q| Request {
                query: q,
                preclick_items: vec![100 + q],
            })
            .collect();
        let batch = served(r.serve_local(&requests));
        for (request, (ads, stats)) in requests.iter().zip(&batch) {
            let (single_ads, single_stats) =
                r.retrieve_with_stats(request.query, &request.preclick_items);
            assert_eq!(ads, &single_ads);
            assert_eq!(stats.coverage, single_stats.coverage);
            assert_eq!(stats.keys_expanded, single_stats.keys_expanded);
            // scans may only ever be saved, never added
            assert!(stats.postings_scanned <= single_stats.postings_scanned);
        }
    }

    #[test]
    fn nan_distances_cannot_panic_or_outrank_real_candidates() {
        // A NaN posting distance maps to score 0 — it can never beat a
        // real candidate — and the total_cmp sorts stay panic-free where
        // partial_cmp().unwrap() used to abort the serving path.
        let inputs = crate::index_set::IndexBuildInputs {
            queries_qq: shared_points(0..3, 11),
            queries_qi: shared_points(0..3, 12),
            items_qi: shared_points(100..110, 13),
            queries_qa: shared_points(0..3, 14),
            ads_qa: random_points(200..210, 15),
            items_ii: shared_points(100..110, 16),
            items_ia: shared_points(100..110, 17),
            ads_ia: random_points(200..210, 18),
        };
        let mut indexes = IndexSet::build(
            &inputs,
            IndexBuildConfig {
                top_k: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        indexes.q2a.insert(0, vec![(205, f64::NAN), (206, 0.1)]);
        let r = TwoLayerRetriever::new(indexes, RetrievalConfig::default());
        let single = r.retrieve_single_layer(0);
        assert_eq!(single.first().unwrap().ad, 206, "real distance must win");
        assert_eq!(
            single.last().unwrap().ad,
            205,
            "NaN distance must sort last"
        );
        assert_eq!(single.last().unwrap().score, 0.0);
        let ads = r.retrieve(0, &[]);
        assert!(!ads.is_empty());
        assert!(ads.iter().all(|a| a.score.is_finite()));
        assert_ne!(
            ads.first().unwrap().ad,
            205,
            "a NaN-distance posting must never top the merged ranking"
        );
    }

    /// What the selection must equal: max-merge per ad, stable full sort
    /// by (score desc, ad asc), truncate.
    fn sort_then_truncate(keyed: &[(Key, Vec<(u32, f64)>)], top_n: usize) -> Vec<RetrievedAd> {
        let mut merged = std::collections::BTreeMap::new();
        for (key, list) in keyed {
            for &(ad, d) in list {
                let score = key.weight * distance_to_score(d);
                let best = merged.entry(ad).or_insert(f64::NEG_INFINITY);
                if score > *best {
                    *best = score;
                }
            }
        }
        let mut ads: Vec<RetrievedAd> = merged
            .into_iter()
            .map(|(ad, score)| RetrievedAd { ad, score })
            .collect();
        ads.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.ad.cmp(&b.ad)));
        ads.truncate(top_n);
        ads
    }

    fn bits(ads: &[RetrievedAd]) -> Vec<(u32, u64)> {
        ads.iter().map(|a| (a.ad, a.score.to_bits())).collect()
    }

    #[test]
    fn top_n_selection_equals_a_full_sort_under_ties_and_nan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // few distinct distances and weights, so different ads tie on score
        let distances = [0.0, 0.25, 0.5, 1.0, f64::NAN];
        let weights = [1.0, 0.8, 0.5];
        let mut rng = StdRng::seed_from_u64(28);
        let mut scratch = IdHashMap::default();
        for case in 0..200 {
            let keyed: Vec<(Key, Vec<(u32, f64)>)> = (0..rng.gen_range(1u32..6))
                .map(|k| {
                    let key = Key {
                        id: k,
                        weight: weights[rng.gen_range(0..weights.len())],
                        is_item: false,
                        origin: KeyOrigin::QueryExpansion,
                    };
                    let list = (0..rng.gen_range(0..12))
                        .map(|_| {
                            let ad = 2_000_000 + rng.gen_range(0u32..40);
                            (ad, distances[rng.gen_range(0..distances.len())])
                        })
                        .collect();
                    (key, list)
                })
                .collect();
            let n = sort_then_truncate(&keyed, usize::MAX).len();
            for top_n in [1, n.saturating_sub(1), n, n + 3] {
                let got = score_candidates(
                    keyed.iter().map(|(key, list)| (key, list.as_slice())),
                    top_n,
                    &mut scratch,
                    &mut RetrievalStats::default(),
                );
                assert_eq!(
                    bits(&got),
                    bits(&sort_then_truncate(&keyed, top_n)),
                    "case {case}, {n} merged ads, top {top_n}"
                );
            }
        }
    }

    #[test]
    fn a_retriever_configured_for_zero_ads_returns_an_empty_ranking() {
        let r = TwoLayerRetriever::new(
            retriever().indexes().clone(),
            RetrievalConfig {
                final_top_n: 0,
                ..RetrievalConfig::default()
            },
        );
        let (ads, stats) = r.retrieve_with_stats(3, &[101, 115]);
        assert!(ads.is_empty());
        assert!(stats.postings_scanned > 0, "the request still ran");
    }
}
