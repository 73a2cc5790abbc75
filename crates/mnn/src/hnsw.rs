//! Hierarchical navigable-small-world (HNSW) search in mixed-curvature
//! space.
//!
//! The exact backend scans every candidate per query; IVF prunes the scan
//! with a coarse tangent-space quantisation built once, offline. HNSW is
//! the third point on that frontier: the index is a layered proximity
//! graph, and [`HnswIndex::build`] wires the candidates into it one point
//! at a time, in slot order.
//!
//! The structure follows Malkov & Yashunin (2018), with the mixed-curvature
//! attention-weighted distance of [`MixedPointSet`] as the metric
//! throughout — no tangent-space proxy, unlike IVF's coarse quantiser:
//!
//! * every node is assigned a level from a geometric distribution
//!   (deterministically, from the compat [`StdRng`] seeded by
//!   [`HnswConfig::seed`] — equal seeds and insertion order reproduce the
//!   graph bit for bit),
//! * each layer is a navigable small-world graph: search greedily descends
//!   from the top layer's entry point, then runs a beam search of width
//!   `ef` on layer 0,
//! * neighbour lists are capped (`M` on upper layers, `2·M` on layer 0)
//!   and pruned with the diversity heuristic — a candidate closer to an
//!   already chosen neighbour than to the base point is redundant and gets
//!   kept only as backfill (keep-pruned-connections), which preserves
//!   connectivity on clustered corpora.
//!
//! `ef_search` is the recall/latency knob: wider beams visit more of the
//! graph. At the saturation point ([`HnswConfig::saturated`]) the layer-0
//! graph is complete and the beam covers the whole corpus, making search
//! provably exhaustive — the HNSW analogue of probing every IVF cluster,
//! which is what lets the parity suites compare it bit-for-bit against the
//! exact scan.
//!
//! NaN distances (corrupt points) are normalised to `+inf` at every
//! comparison site, so graph construction, beam search and result ordering
//! are panic-free total orders — no `partial_cmp().unwrap()` anywhere.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::brute::{Postings, TopK};
use crate::points::MixedPointSet;

/// Configuration of the HNSW graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Maximum links per node on the upper layers (layer 0 allows `2·m`).
    /// Also sets the level-sampling rate: levels are geometric with mean
    /// `1 / ln(m)`.
    pub m: usize,
    /// Beam width while inserting — how many candidates a new node
    /// considers linking to. Larger builds a better graph, slower.
    pub ef_construction: usize,
    /// Beam width while searching — the recall/latency knob. Clamped up
    /// to `k` per query so a narrow beam can never truncate a result set.
    pub ef_search: usize,
    /// Seed of the deterministic level-sampling RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 80,
            ef_search: 48,
            seed: 0x45f,
        }
    }
}

impl HnswConfig {
    /// The same graph parameters with a different search beam width — the
    /// sweep knob of the recall/build-time frontier benchmarks.
    pub fn with_ef_search(mut self, ef_search: usize) -> Self {
        self.ef_search = ef_search;
        self
    }

    /// A configuration that is provably exhaustive for corpora of up to
    /// `n` candidates: `m ≥ n` means neighbour lists are never pruned (the
    /// layer-0 graph stays complete) and `ef ≥ n` means the beam covers
    /// every node, so search degenerates to an exact scan — the HNSW
    /// analogue of full-probe IVF. Parity tests and tiny corpora only;
    /// real deployments want the sub-linear defaults.
    pub fn saturated(n: usize) -> HnswConfig {
        let n = n.max(1);
        HnswConfig {
            m: n,
            ef_construction: n,
            ef_search: n,
            ..HnswConfig::default()
        }
    }
}

/// A `(distance, slot)` pair with the total order every queue in this
/// module uses: distance first (NaN already normalised to `+inf` at the
/// construction site), slot as the deterministic tie-break — the same
/// `(distance, id)`-style ordering as the exact scan's `TopK`, so equal
/// distances never make results depend on traversal order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DistSlot {
    dist: f64,
    slot: u32,
}

impl Eq for DistSlot {}

impl Ord for DistSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.slot.cmp(&other.slot))
    }
}

impl PartialOrd for DistSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Epoch-stamped visited marks: one query allocates the stamp array once
/// and each layer's beam search "clears" it by bumping the epoch — O(1)
/// per layer instead of zeroing an O(n) bitmap per `search_layer` call.
#[derive(Debug, Clone, Default)]
struct VisitedSet {
    epoch: u32,
    stamp: Vec<u32>,
}

impl VisitedSet {
    /// Start a fresh visited scope over `n` slots.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrapped: stale stamps could collide with the new epoch
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `slot` visited; returns whether it already was in this scope.
    fn visit(&mut self, slot: u32) -> bool {
        let s = &mut self.stamp[slot as usize];
        if *s == self.epoch {
            true
        } else {
            *s = self.epoch;
            false
        }
    }
}

/// An HNSW graph over a candidate point set (see the module docs).
#[derive(Debug, Clone)]
pub struct HnswIndex {
    candidates: MixedPointSet,
    config: HnswConfig,
    /// Slot of the entry point (the highest-level node); `None` iff empty.
    entry: Option<usize>,
    /// Top layer of each node.
    node_level: Vec<usize>,
    /// `links[slot][layer]` — neighbour slots of `slot` on `layer`, for
    /// layers `0..=node_level[slot]`.
    links: Vec<Vec<Vec<u32>>>,
}

impl HnswIndex {
    /// Build a graph over a candidate set by wiring every point in, in
    /// slot order (the owned set is installed wholesale; a not-yet-wired
    /// slot is unreachable until `insert_slot` links it). Node levels are
    /// drawn from one RNG seeded by [`HnswConfig::seed`], so equal seeds
    /// and candidate order reproduce the graph bit for bit.
    pub fn build(candidates: MixedPointSet, config: HnswConfig) -> Self {
        let n = candidates.len();
        let mut index = HnswIndex {
            candidates,
            config,
            entry: None,
            node_level: Vec::with_capacity(n),
            links: Vec::with_capacity(n),
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        for slot in 0..n {
            index.insert_slot(slot, &mut rng);
        }
        index
    }

    /// Number of indexed candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Top layer of the hierarchy (0 for an empty or single-level graph).
    pub fn max_level(&self) -> usize {
        self.entry.map_or(0, |e| self.node_level[e])
    }

    /// Links of node `slot` on `layer` (diagnostics and tests).
    pub fn neighbours(&self, slot: usize, layer: usize) -> &[u32] {
        &self.links[slot][layer]
    }

    /// Distance of an external query to stored slot `j`, with NaN
    /// normalised to `+inf` so it can never head a queue (matching the
    /// exact scan's `TopK` normalisation).
    #[inline]
    fn slot_distance(&self, query: &[f64], query_weight: &[f64], j: usize) -> f64 {
        let d = self.candidates.distance_to(query, query_weight, j);
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    }

    /// Distance between two stored slots, NaN-normalised like
    /// [`HnswIndex::slot_distance`].
    #[inline]
    fn link_distance(&self, i: usize, j: usize) -> f64 {
        let d = self.candidates.distance_between(i, &self.candidates, j);
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    }

    /// Maximum neighbour-list length on `layer`.
    #[inline]
    fn layer_cap(&self, layer: usize) -> usize {
        let m = self.config.m.max(1);
        if layer == 0 {
            m.saturating_mul(2)
        } else {
            m
        }
    }

    /// Draw the level of the next wired node: geometric with rate
    /// `1 / ln(m)`, from the build's deterministic RNG.
    fn sample_level(&self, rng: &mut StdRng) -> usize {
        let mult = 1.0 / (self.config.m.max(2) as f64).ln();
        let u: f64 = rng.gen(); // in [0, 1), so 1 - u is in (0, 1]
        (-(1.0 - u).ln() * mult) as usize
    }

    /// The beam search of one layer: explore from `entries`, keeping the
    /// `ef` best `(distance, slot)` pairs seen. Returns them sorted
    /// ascending. `visited` is a reusable scratch bitmap.
    ///
    /// Each hop evaluates the popped node's unvisited neighbours as one
    /// gathered SoA sweep (`ComponentBlocks::scan_indices_into`) against
    /// the query's hoisted Gram context — bit-identical to per-neighbour
    /// scattered calls, but the inner distance loops run unit-stride over
    /// the coordinate blocks.
    fn search_layer(
        &self,
        query: &[f64],
        query_weight: &[f64],
        entries: &[DistSlot],
        ef: usize,
        layer: usize,
        visited: &mut VisitedSet,
    ) -> Vec<DistSlot> {
        // a beam holds no more nodes than exist, so clamping `ef` to the
        // candidate count changes no result and bounds the heaps below
        let ef = ef.clamp(1, self.candidates.len().max(1));
        visited.begin(self.candidates.len());
        let blocks = self.candidates.blocks();
        let grams = blocks.query_grams(query);
        // hoisted per-call scratch: one slot batch and one distance lane,
        // both bounded by the layer's neighbour-list cap and the node count
        let widest = self.layer_cap(layer).min(self.candidates.len());
        let mut batch: Vec<usize> = Vec::with_capacity(widest);
        let mut lane: Vec<f64> = Vec::with_capacity(widest);
        // `best` is hard-bounded by ef (+1 transiently); `frontier`
        // usually stays near ef too — pre-size both so the search loop
        // allocates only when the expansion genuinely outgrows ef
        let mut frontier: BinaryHeap<Reverse<DistSlot>> = BinaryHeap::with_capacity(ef + 1);
        let mut best: BinaryHeap<DistSlot> = BinaryHeap::with_capacity(ef + 1); // max-heap: worst kept on top
        for &e in entries {
            if visited.visit(e.slot) {
                continue;
            }
            frontier.push(Reverse(e));
            best.push(e);
            if best.len() > ef {
                best.pop();
            }
        }
        while let Some(Reverse(current)) = frontier.pop() {
            if best.len() >= ef {
                let worst = best.peek().expect("best is non-empty here");
                if current.dist > worst.dist {
                    break; // every remaining frontier entry is farther still
                }
            }
            batch.clear();
            for &nb in &self.links[current.slot as usize][layer] {
                if visited.visit(nb) {
                    continue;
                }
                batch.push(nb as usize);
            }
            if batch.is_empty() {
                continue;
            }
            lane.resize(batch.len(), 0.0);
            blocks.scan_indices_into(&grams, query, query_weight, &batch, &mut lane);
            for (jj, &nb) in batch.iter().enumerate() {
                let d = lane[jj];
                let node = DistSlot {
                    dist: if d.is_nan() { f64::INFINITY } else { d },
                    slot: nb as u32,
                };
                if best.len() < ef {
                    best.push(node);
                    frontier.push(Reverse(node));
                } else if node < *best.peek().expect("best is full here") {
                    best.pop();
                    best.push(node);
                    frontier.push(Reverse(node));
                }
            }
        }
        best.into_sorted_vec()
    }

    /// The diversity heuristic (keep-pruned-connections variant): walk the
    /// candidates in ascending `(distance, slot)` order, keep one unless it
    /// sits closer to an already kept neighbour than to the base point
    /// (then it is redundant — the kept neighbour already routes to it),
    /// and backfill with the pruned ones up to `m` so clustered corpora
    /// keep their links.
    fn select_neighbours(&self, sorted: &[DistSlot], m: usize) -> Vec<u32> {
        let mut kept: Vec<DistSlot> = Vec::with_capacity(m.min(sorted.len()));
        let mut pruned: Vec<u32> = Vec::new();
        for &c in sorted {
            if kept.len() >= m {
                break;
            }
            let redundant = kept
                .iter()
                .any(|&r| self.link_distance(c.slot as usize, r.slot as usize) < c.dist);
            if redundant {
                pruned.push(c.slot);
            } else {
                kept.push(c);
            }
        }
        let mut out: Vec<u32> = kept.into_iter().map(|c| c.slot).collect();
        for slot in pruned {
            if out.len() >= m {
                break;
            }
            out.push(slot);
        }
        out
    }

    /// Re-select the neighbour list of `node` on `layer` when a backlink
    /// pushed it over the layer cap.
    fn shrink_links(&mut self, node: usize, layer: usize) {
        let cap = self.layer_cap(layer);
        if self.links[node][layer].len() <= cap {
            return;
        }
        let mut cands: Vec<DistSlot> = self.links[node][layer]
            .iter()
            .map(|&nb| DistSlot {
                dist: self.link_distance(node, nb as usize),
                slot: nb,
            })
            .collect();
        cands.sort_unstable();
        self.links[node][layer] = self.select_neighbours(&cands, cap);
    }

    /// Wire the (already stored) point at `slot` into the graph.
    fn insert_slot(&mut self, slot: usize, rng: &mut StdRng) {
        let level = self.sample_level(rng);
        self.node_level.push(level);
        self.links.push(vec![Vec::new(); level + 1]);
        debug_assert_eq!(self.links.len(), slot + 1);
        let Some(entry) = self.entry else {
            self.entry = Some(slot); // the first node seeds the hierarchy
            return;
        };
        // the query is the new point itself; copied out so the graph can
        // be mutated while searching with it
        let query = self.candidates.point(slot).to_vec();
        let weight = self.candidates.weight(slot).to_vec();
        let top = self.node_level[entry];
        let mut entries = vec![DistSlot {
            dist: self.slot_distance(&query, &weight, entry),
            slot: entry as u32,
        }];
        let mut visited = VisitedSet::default();
        // greedy descent through the layers above the new node's level
        for layer in ((level + 1)..=top).rev() {
            let found = self.search_layer(&query, &weight, &entries, 1, layer, &mut visited);
            if let Some(&nearest) = found.first() {
                entries = vec![nearest];
            }
        }
        // beam-search every shared layer, linking bidirectionally and
        // carrying the result set down as the next layer's entry points
        let ef = self.config.ef_construction.max(1);
        for layer in (0..=level.min(top)).rev() {
            let found = self.search_layer(&query, &weight, &entries, ef, layer, &mut visited);
            let selected = self.select_neighbours(&found, self.config.m.max(1));
            self.links[slot][layer] = selected.clone();
            for nb in selected {
                self.links[nb as usize][layer].push(slot as u32);
                self.shrink_links(nb as usize, layer);
            }
            entries = found;
        }
        if level > top {
            self.entry = Some(slot); // the hierarchy grew a layer
        }
    }

    /// Approximate top-K search: greedy descent to layer 0, a beam of
    /// width `max(ef_search, k)` there, then the shared `TopK` cut — so
    /// result ordering (ascending `(distance, id)`, NaN as `+inf`) is
    /// identical to the exact scan's. `exclude_id` is honoured at
    /// collection time: excluded nodes still route the search (one extra
    /// beam slot covers the hit they would occupy).
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
        let entry = self.entry.expect("a non-empty index has an entry point");
        // single-slot buffer reused across the layer descent instead of
        // a fresh one-element Vec per layer
        let mut entries = Vec::with_capacity(1);
        entries.push(DistSlot {
            dist: self.slot_distance(query, query_weight, entry),
            slot: entry as u32,
        });
        let mut visited = VisitedSet::default();
        for layer in (1..=self.node_level[entry]).rev() {
            let found = self.search_layer(query, query_weight, &entries, 1, layer, &mut visited);
            if let Some(&nearest) = found.first() {
                entries.clear();
                entries.push(nearest);
            }
        }
        let ef = self
            .config
            .ef_search
            .max(k.saturating_add(usize::from(exclude_id.is_some())));
        let found = self.search_layer(query, query_weight, &entries, ef, 0, &mut visited);
        let mut topk = TopK::new(k.min(found.len()));
        for c in found {
            let id = self.candidates.id(c.slot as usize);
            if exclude_id == Some(id) {
                continue;
            }
            topk.offer(c.dist, id);
        }
        topk.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnnIndex;
    use crate::brute::build_exact_index;
    use crate::ivf::recall_at_k;
    use crate::test_util::random_set;
    use amcad_manifold::{ProductManifold, SubspaceSpec};

    #[test]
    fn saturated_graph_search_is_bitwise_identical_to_the_exact_scan() {
        let cands = random_set(60, 1);
        let keys = random_set(15, 2);
        let exact = build_exact_index(&keys, &cands, 6, false, 1);
        let hnsw = HnswIndex::build(cands, HnswConfig::saturated(60));
        let approx = hnsw.build_index(&keys, 6, false);
        assert_eq!(exact.len(), approx.len());
        for (key, postings) in exact.iter() {
            assert_eq!(
                approx.get(*key),
                Some(postings),
                "saturated HNSW must reproduce exact postings (ids and distances) for key {key}"
            );
        }
    }

    #[test]
    fn self_exclusion_works_and_excluded_nodes_still_route() {
        let set = random_set(50, 3);
        let hnsw = HnswIndex::build(set.clone(), HnswConfig::saturated(50));
        let index = hnsw.build_index(&set, 4, true);
        let exact = build_exact_index(&set, &set, 4, true, 1);
        for i in 0..set.len() {
            let id = set.id(i);
            let postings = index.get(id).unwrap();
            assert!(postings.iter().all(|(c, _)| *c != id));
            assert_eq!(postings, exact.get(id).unwrap());
        }
    }

    #[test]
    fn default_config_keeps_high_recall_on_a_real_sized_corpus() {
        let cands = random_set(300, 6);
        let keys = random_set(30, 7);
        let exact = build_exact_index(&keys, &cands, 10, false, 1);
        let hnsw = HnswIndex::build(cands, HnswConfig::default());
        let approx = hnsw.build_index(&keys, 10, false);
        let recall = recall_at_k(&approx, &exact, 10);
        assert!(
            recall >= 0.8,
            "default HNSW should keep recall@10 >= 0.8, got {recall:.3}"
        );
        // a member query's nearest neighbour is itself
        let hits = hnsw.search(keys.point(0), keys.weight(0), 3, None);
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn the_hierarchy_actually_grows_levels() {
        // low m → high level-sampling rate → multi-layer graph
        let cands = random_set(200, 8);
        let hnsw = HnswIndex::build(
            cands,
            HnswConfig {
                m: 4,
                ef_construction: 24,
                ef_search: 24,
                seed: 21,
            },
        );
        assert!(
            hnsw.max_level() >= 1,
            "200 nodes at m=4 should produce at least two layers"
        );
        // every node respects its layer caps after all the backlinking
        for slot in 0..hnsw.len() {
            for layer in 0..=hnsw.node_level[slot] {
                assert!(hnsw.neighbours(slot, layer).len() <= hnsw.layer_cap(layer));
            }
        }
    }

    #[test]
    fn equal_seeds_reproduce_the_index_exactly() {
        let cands = random_set(70, 9);
        let keys = random_set(10, 10);
        let a = HnswIndex::build(cands.clone(), HnswConfig::default());
        let b = HnswIndex::build(cands, HnswConfig::default());
        for i in 0..keys.len() {
            assert_eq!(
                a.search(keys.point(i), keys.weight(i), 6, None),
                b.search(keys.point(i), keys.weight(i), 6, None),
            );
        }
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        let manifold = ProductManifold::new(vec![SubspaceSpec::new(2, 0.0)]);
        let empty = MixedPointSet::new(manifold.clone());
        let hnsw = HnswIndex::build(empty.clone(), HnswConfig::default());
        assert!(hnsw.is_empty());
        assert!(hnsw.search(&[0.0, 0.0], &[1.0], 3, None).is_empty());
        assert!(hnsw.build_index(&empty, 3, false).is_empty());
        // the first wired point seeds the entry point
        let mut points = MixedPointSet::new(manifold.clone());
        points.push(1, &[0.1, 0.0], &[1.0]);
        points.push(2, &[0.0, 0.2], &[1.0]);
        let hnsw = HnswIndex::build(points, HnswConfig::default());
        assert_eq!(hnsw.len(), 2);
        let hits = hnsw.search(&[0.1, 0.0], &[1.0], 2, None);
        assert_eq!(hits.first().unwrap().0, 1);
        // k = 0 short-circuits
        assert!(hnsw.search(&[0.1, 0.0], &[1.0], 0, None).is_empty());
    }
}
