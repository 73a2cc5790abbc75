//! Behaviour-log simulation, graph construction and ground truth.
//!
//! This module turns a latent [`World`] into the artefacts the rest of the
//! system consumes, mirroring the paper's data pipeline (Fig. 3 / Fig. 4):
//!
//! 1. simulate user search sessions for a *training* window and a separate
//!    *next-day* evaluation window,
//! 2. build the heterogeneous interaction graph from the training sessions
//!    (clicks, co-clicks, semantic and co-bid edges),
//! 3. derive ground truth from the evaluation window: click-count-sorted
//!    item / ad lists per query (for HitRate / nDCG) and next-day click
//!    edges (for Next AUC).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amcad_graph::{GraphBuilder, HeteroGraph, NodeFeatures, NodeId, NodeType, SessionRecord};

use crate::config::WorldConfig;
use crate::world::{ProductRef, World};

/// Ground truth derived from the evaluation (next-day) sessions.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Per query: items clicked next day, sorted by click count (descending).
    pub q2i: HashMap<NodeId, Vec<(NodeId, u32)>>,
    /// Per query: ads clicked next day, sorted by click count (descending).
    pub q2a: HashMap<NodeId, Vec<(NodeId, u32)>>,
    /// All next-day (query, clicked node) pairs — the positive edges for
    /// Next-AUC evaluation.
    pub eval_edges: Vec<(NodeId, NodeId)>,
}

impl GroundTruth {
    fn from_sessions(sessions: &[SessionRecord], graph: &HeteroGraph) -> Self {
        let mut q2i: HashMap<NodeId, HashMap<NodeId, u32>> = HashMap::new();
        let mut q2a: HashMap<NodeId, HashMap<NodeId, u32>> = HashMap::new();
        let mut eval_edges = Vec::new();
        for s in sessions {
            for &c in &s.clicks {
                eval_edges.push((s.query, c));
                match graph.node_type(c) {
                    NodeType::Item => *q2i.entry(s.query).or_default().entry(c).or_default() += 1,
                    NodeType::Ad => *q2a.entry(s.query).or_default().entry(c).or_default() += 1,
                    NodeType::Query => {}
                }
            }
        }
        let sort = |m: HashMap<NodeId, HashMap<NodeId, u32>>| {
            m.into_iter()
                .map(|(q, counts)| {
                    let mut v: Vec<(NodeId, u32)> = counts.into_iter().collect();
                    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    (q, v)
                })
                .collect()
        };
        GroundTruth {
            q2i: sort(q2i),
            q2a: sort(q2a),
            eval_edges,
        }
    }
}

/// A fully generated dataset: the latent world, the interaction graph built
/// from training logs, the raw session logs and next-day ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The latent world the logs were simulated from.
    pub world: World,
    /// The heterogeneous graph built from the training sessions.
    pub graph: HeteroGraph,
    /// Node id of each query entity (index-aligned with `world.queries`).
    pub query_nodes: Vec<NodeId>,
    /// Node id of each item entity (index-aligned with `world.items`).
    pub item_nodes: Vec<NodeId>,
    /// Node id of each ad entity (index-aligned with `world.ads`).
    pub ad_nodes: Vec<NodeId>,
    /// Training-window sessions.
    pub train_sessions: Vec<SessionRecord>,
    /// Evaluation-window (next-day) sessions.
    pub eval_sessions: Vec<SessionRecord>,
    /// Ground truth derived from the evaluation window.
    pub ground_truth: GroundTruth,
}

impl Dataset {
    /// Generate a dataset from a configuration (deterministic in the seed).
    pub fn generate(config: &WorldConfig) -> Dataset {
        let world = World::generate(config);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // --- register every entity as a graph node ---------------------------
        let mut builder = GraphBuilder::new();
        let query_nodes: Vec<NodeId> = world
            .queries
            .iter()
            .map(|q| {
                builder.add_node(
                    NodeType::Query,
                    NodeFeatures::query(q.category, q.terms.clone()),
                )
            })
            .collect();
        let item_nodes: Vec<NodeId> = world
            .items
            .iter()
            .map(|it| {
                builder.add_node(
                    NodeType::Item,
                    NodeFeatures::item(it.category, it.terms.clone(), it.brand, it.shop),
                )
            })
            .collect();
        let ad_nodes: Vec<NodeId> = world
            .ads
            .iter()
            .map(|ad| {
                builder.add_node(
                    NodeType::Ad,
                    NodeFeatures::ad(
                        ad.category,
                        ad.terms.clone(),
                        ad.brand,
                        ad.shop,
                        ad.bid_words.clone(),
                    ),
                )
            })
            .collect();

        // --- simulate behaviour logs -----------------------------------------
        let train_sessions = simulate_sessions(
            &world,
            &query_nodes,
            &item_nodes,
            &ad_nodes,
            config.train_sessions,
            &mut rng,
        );
        let eval_sessions = simulate_sessions(
            &world,
            &query_nodes,
            &item_nodes,
            &ad_nodes,
            config.eval_sessions,
            &mut rng,
        );

        // --- build the graph from the training window ------------------------
        for s in &train_sessions {
            builder.ingest_session(s);
        }
        builder.add_query_coclick_edges(&train_sessions, 64);
        builder.add_semantic_edges(config.semantic_threshold);
        builder.add_cobid_edges();
        let graph = builder.build();

        let ground_truth = GroundTruth::from_sessions(&eval_sessions, &graph);

        Dataset {
            world,
            graph,
            query_nodes,
            item_nodes,
            ad_nodes,
            train_sessions,
            eval_sessions,
            ground_truth,
        }
    }

    /// Map a graph node back to its entity and return the ground-truth
    /// relevance of `target` (item or ad node) for `query` (query node).
    ///
    /// Returns 0 for pairs that are not (query, product).
    pub fn relevance(&self, query: NodeId, target: NodeId) -> f64 {
        let Some(q_idx) = self.query_index(query) else {
            return 0.0;
        };
        if let Some(i_idx) = self.item_index(target) {
            return self.world.relevance(q_idx, ProductRef::Item(i_idx));
        }
        if let Some(a_idx) = self.ad_index(target) {
            return self.world.relevance(q_idx, ProductRef::Ad(a_idx));
        }
        0.0
    }

    /// Entity index of a query node, if `node` is a query.
    pub fn query_index(&self, node: NodeId) -> Option<usize> {
        let idx = node.index();
        if idx < self.query_nodes.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Entity index of an item node, if `node` is an item.
    pub fn item_index(&self, node: NodeId) -> Option<usize> {
        let idx = node.index();
        let start = self.query_nodes.len();
        if idx >= start && idx < start + self.item_nodes.len() {
            Some(idx - start)
        } else {
            None
        }
    }

    /// Entity index of an ad node, if `node` is an ad.
    pub fn ad_index(&self, node: NodeId) -> Option<usize> {
        let idx = node.index();
        let start = self.query_nodes.len() + self.item_nodes.len();
        if idx >= start && idx < start + self.ad_nodes.len() {
            Some(idx - start)
        } else {
            None
        }
    }

    /// Bid price of an ad node (used by the RPM computation).
    pub fn bid_price(&self, ad_node: NodeId) -> f64 {
        self.ad_index(ad_node)
            .map(|i| self.world.ads[i].bid_price)
            .unwrap_or(0.0)
    }

    /// The pre-click items of a simulated request: for a given evaluation
    /// session, the items (not ads) the user clicked — used as the `P` list
    /// of the two-layer online retrieval input.
    pub fn preclick_items(&self, session: &SessionRecord) -> Vec<NodeId> {
        session
            .clicks
            .iter()
            .copied()
            .filter(|c| self.graph.node_type(*c) == NodeType::Item)
            .collect()
    }
}

/// Simulate `count` user search sessions against the latent world.
fn simulate_sessions(
    world: &World,
    query_nodes: &[NodeId],
    item_nodes: &[NodeId],
    ad_nodes: &[NodeId],
    count: usize,
    rng: &mut StdRng,
) -> Vec<SessionRecord> {
    // Pre-index products per category for candidate generation.
    let num_categories = world.config.num_categories;
    let mut items_by_cat: Vec<Vec<usize>> = vec![Vec::new(); num_categories];
    for (i, it) in world.items.iter().enumerate() {
        items_by_cat[it.category as usize].push(i);
    }
    let mut ads_by_cat: Vec<Vec<usize>> = vec![Vec::new(); num_categories];
    for (i, ad) in world.ads.iter().enumerate() {
        ads_by_cat[ad.category as usize].push(i);
    }
    let mut queries_by_cat: Vec<Vec<usize>> = vec![Vec::new(); num_categories];
    for (i, q) in world.queries.iter().enumerate() {
        queries_by_cat[q.category as usize].push(i);
    }

    let mut sessions = Vec::with_capacity(count);
    for _ in 0..count {
        let user_id = rng.gen_range(0..world.users.len());
        let user = &world.users[user_id];
        let cat = user.interests[rng.gen_range(0..user.interests.len())] as usize;
        let q_pool = &queries_by_cat[cat];
        if q_pool.is_empty() {
            continue;
        }
        // Broad queries are searched more often than narrow ones.
        let q_idx = loop {
            let cand = q_pool[rng.gen_range(0..q_pool.len())];
            let level = world.queries[cand].level;
            let keep_prob = match level {
                0 => 1.0,
                1 => 0.7,
                _ => 0.45,
            };
            if rng.gen_bool(keep_prob) {
                break cand;
            }
        };

        // Candidate products: same category, occasionally a sibling category.
        let browse_cat = if rng.gen_bool(0.1) && num_categories > 1 {
            (cat + 1) % num_categories // sibling category
        } else {
            cat
        };
        let num_clicks = rng.gen_range(1..=world.config.max_clicks_per_session);
        let mut clicks = Vec::with_capacity(num_clicks);
        for _ in 0..num_clicks {
            // 25% of clicks land on ads (sponsored slots), the rest on items.
            let is_ad = rng.gen_bool(0.25) && !ads_by_cat[browse_cat].is_empty();
            let (pool, nodes): (&Vec<usize>, &[NodeId]) = if is_ad {
                (&ads_by_cat[browse_cat], ad_nodes)
            } else {
                (&items_by_cat[browse_cat], item_nodes)
            };
            if pool.is_empty() {
                continue;
            }
            // Relevance-proportional click choice (rejection sampling).
            let mut chosen = None;
            for _ in 0..12 {
                let cand = pool[rng.gen_range(0..pool.len())];
                let rel = world.relevance(
                    q_idx,
                    if is_ad {
                        ProductRef::Ad(cand)
                    } else {
                        ProductRef::Item(cand)
                    },
                );
                if rng.gen_bool(rel.clamp(0.02, 1.0)) {
                    chosen = Some(cand);
                    break;
                }
            }
            if let Some(c) = chosen {
                let node = nodes[c];
                if !clicks.contains(&node) {
                    clicks.push(node);
                }
            }
        }
        if clicks.is_empty() {
            continue;
        }
        sessions.push(SessionRecord {
            user: user_id as u32,
            query: query_nodes[q_idx],
            clicks,
        });
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_graph::Relation;

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&WorldConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&WorldConfig::tiny(7));
        let b = Dataset::generate(&WorldConfig::tiny(7));
        assert_eq!(a.train_sessions, b.train_sessions);
        assert_eq!(a.eval_sessions, b.eval_sessions);
        assert_eq!(a.graph.stats(), b.graph.stats());
    }

    #[test]
    fn node_index_ranges_are_contiguous_and_typed() {
        let d = tiny_dataset();
        for (i, &n) in d.query_nodes.iter().enumerate() {
            assert_eq!(d.graph.node_type(n), NodeType::Query);
            assert_eq!(d.query_index(n), Some(i));
            assert_eq!(d.item_index(n), None);
        }
        for (i, &n) in d.item_nodes.iter().enumerate() {
            assert_eq!(d.graph.node_type(n), NodeType::Item);
            assert_eq!(d.item_index(n), Some(i));
        }
        for (i, &n) in d.ad_nodes.iter().enumerate() {
            assert_eq!(d.graph.node_type(n), NodeType::Ad);
            assert_eq!(d.ad_index(n), Some(i));
        }
    }

    #[test]
    fn graph_has_all_four_relations() {
        let d = tiny_dataset();
        for r in Relation::ALL {
            assert!(
                d.graph.num_edges(r) > 0,
                "relation {r:?} should have edges in the tiny dataset"
            );
        }
    }

    #[test]
    fn sessions_click_mostly_relevant_products() {
        let d = tiny_dataset();
        let mut rel_sum = 0.0;
        let mut count = 0usize;
        for s in &d.train_sessions {
            for &c in &s.clicks {
                rel_sum += d.relevance(s.query, c);
                count += 1;
            }
        }
        let mean_clicked = rel_sum / count as f64;
        // Mean relevance of random (query, item) pairs for comparison.
        let mut rng = StdRng::seed_from_u64(1);
        let mut rand_sum = 0.0;
        let n_rand = 2_000;
        for _ in 0..n_rand {
            let q = d.query_nodes[rng.gen_range(0..d.query_nodes.len())];
            let it = d.item_nodes[rng.gen_range(0..d.item_nodes.len())];
            rand_sum += d.relevance(q, it);
        }
        let mean_random = rand_sum / n_rand as f64;
        assert!(
            mean_clicked > mean_random * 2.0,
            "clicked relevance {mean_clicked} should clearly exceed random {mean_random}"
        );
    }

    #[test]
    fn ground_truth_is_sorted_by_click_count() {
        let d = tiny_dataset();
        assert!(!d.ground_truth.q2i.is_empty());
        assert!(!d.ground_truth.eval_edges.is_empty());
        for list in d
            .ground_truth
            .q2i
            .values()
            .chain(d.ground_truth.q2a.values())
        {
            for w in list.windows(2) {
                assert!(w[0].1 >= w[1].1, "ground truth must be sorted descending");
            }
        }
    }

    #[test]
    fn ground_truth_types_are_consistent() {
        let d = tiny_dataset();
        for (q, list) in &d.ground_truth.q2i {
            assert_eq!(d.graph.node_type(*q), NodeType::Query);
            for (n, _) in list {
                assert_eq!(d.graph.node_type(*n), NodeType::Item);
            }
        }
        for (q, list) in &d.ground_truth.q2a {
            assert_eq!(d.graph.node_type(*q), NodeType::Query);
            for (n, _) in list {
                assert_eq!(d.graph.node_type(*n), NodeType::Ad);
            }
        }
    }

    #[test]
    fn bid_prices_are_positive_for_ads_and_zero_otherwise() {
        let d = tiny_dataset();
        assert!(d.bid_price(d.ad_nodes[0]) > 0.0);
        assert_eq!(d.bid_price(d.item_nodes[0]), 0.0);
        assert_eq!(d.bid_price(d.query_nodes[0]), 0.0);
    }

    #[test]
    fn preclick_items_filters_out_ads() {
        let d = tiny_dataset();
        let session = d
            .eval_sessions
            .iter()
            .find(|s| !s.clicks.is_empty())
            .unwrap();
        let pre = d.preclick_items(session);
        for p in pre {
            assert_eq!(d.graph.node_type(p), NodeType::Item);
        }
    }

    #[test]
    fn relevance_of_unrelated_node_kinds_is_zero() {
        let d = tiny_dataset();
        // target is a query → 0
        assert_eq!(d.relevance(d.query_nodes[0], d.query_nodes[1]), 0.0);
        // source is an item → 0
        assert_eq!(d.relevance(d.item_nodes[0], d.item_nodes[1]), 0.0);
    }
}
