//! The heterogeneous interaction graph and its builder.
//!
//! [`GraphBuilder`] implements the construction pipeline of Section IV-A.1:
//! behavioural edges (click / co-click) are derived from search sessions,
//! non-behavioural edges (semantic similarity, co-bidding) from node
//! features.  The finished [`HeteroGraph`] stores one CSR adjacency
//! structure per relation and supports the neighbour queries the model and
//! samplers need.

use std::collections::{HashMap, HashSet};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::types::{NodeFeatures, NodeId, NodeType, Relation, SessionRecord};

/// Compressed sparse-row adjacency for one relation.
#[derive(Debug, Clone, Default)]
struct CsrAdj {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl CsrAdj {
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Summary statistics of a built graph (used by the Table V experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of query nodes.
    pub queries: usize,
    /// Number of item nodes.
    pub items: usize,
    /// Number of ad nodes.
    pub ads: usize,
    /// Number of directed edges per relation (both directions counted).
    pub edges_per_relation: [usize; 4],
}

impl GraphStats {
    /// Total number of nodes.
    pub fn total_nodes(&self) -> usize {
        self.queries + self.items + self.ads
    }

    /// Total number of directed edges over all relations.
    pub fn total_edges(&self) -> usize {
        self.edges_per_relation.iter().sum()
    }
}

/// The finished heterogeneous query–item–ad interaction graph.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    node_types: Vec<NodeType>,
    features: Vec<NodeFeatures>,
    adj: [CsrAdj; 4],
    nodes_by_type: [Vec<NodeId>; 3],
    nodes_by_type_category: HashMap<(NodeType, u32), Vec<NodeId>>,
}

impl HeteroGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of directed edges of one relation.
    pub fn num_edges(&self, relation: Relation) -> usize {
        self.adj[relation.index()].targets.len()
    }

    /// Total number of directed edges.
    pub fn total_edges(&self) -> usize {
        Relation::ALL.iter().map(|r| self.num_edges(*r)).sum()
    }

    /// Type of a node.
    #[inline]
    pub fn node_type(&self, node: NodeId) -> NodeType {
        self.node_types[node.index()]
    }

    /// Features of a node.
    #[inline]
    pub fn features(&self, node: NodeId) -> &NodeFeatures {
        &self.features[node.index()]
    }

    /// Leaf category of a node.
    #[inline]
    pub fn category(&self, node: NodeId) -> u32 {
        self.features[node.index()].category
    }

    /// Neighbours of `node` under one relation.
    pub fn neighbors(&self, node: NodeId, relation: Relation) -> &[NodeId] {
        self.adj[relation.index()].neighbors(node)
    }

    /// Neighbours of `node` over all relations (may contain duplicates if a
    /// pair is connected by several relations).
    pub fn neighbors_all(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for r in Relation::ALL {
            out.extend_from_slice(self.neighbors(node, r));
        }
        out
    }

    /// Degree of a node under one relation.
    pub fn degree(&self, node: NodeId, relation: Relation) -> usize {
        self.neighbors(node, relation).len()
    }

    /// Total degree of a node over all relations.
    pub fn total_degree(&self, node: NodeId) -> usize {
        Relation::ALL.iter().map(|r| self.degree(node, *r)).sum()
    }

    /// All nodes of a given type.
    pub fn nodes_of_type(&self, t: NodeType) -> &[NodeId] {
        &self.nodes_by_type[t.index()]
    }

    /// All nodes of a given type and leaf category.
    pub fn nodes_of_type_category(&self, t: NodeType, category: u32) -> &[NodeId] {
        self.nodes_by_type_category
            .get(&(t, category))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All node ids, in id order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Whether `a` and `b` are connected by `relation` (either direction —
    /// edges are stored symmetrically).
    pub fn has_edge(&self, a: NodeId, b: NodeId, relation: Relation) -> bool {
        self.neighbors(a, relation).contains(&b)
    }

    /// Sample up to `fanout` neighbours of `node` of the requested type over
    /// all relations (with replacement avoided when enough exist).  Used by
    /// the GCN context encoder.
    pub fn sample_neighbors_of_type<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        neighbor_type: NodeType,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = self
            .neighbors_all(node)
            .into_iter()
            .filter(|n| self.node_type(*n) == neighbor_type)
            .collect();
        if candidates.is_empty() || fanout == 0 {
            return Vec::new();
        }
        if candidates.len() <= fanout {
            return candidates;
        }
        candidates.choose_multiple(rng, fanout).copied().collect()
    }

    /// Sample one neighbour of `node` under `relation`, optionally
    /// constrained to a target node type.  Returns `None` on a dead end.
    pub fn sample_neighbor<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        relation: Relation,
        target_type: Option<NodeType>,
        rng: &mut R,
    ) -> Option<NodeId> {
        let neigh = self.neighbors(node, relation);
        if neigh.is_empty() {
            return None;
        }
        // Rejection sample a few times before scanning (most relations are
        // type-homogeneous so the first draw usually succeeds).
        for _ in 0..4 {
            let cand = neigh[rng.gen_range(0..neigh.len())];
            match target_type {
                None => return Some(cand),
                Some(t) if self.node_type(cand) == t => return Some(cand),
                _ => {}
            }
        }
        let filtered: Vec<NodeId> = neigh
            .iter()
            .copied()
            .filter(|n| target_type.is_none_or(|t| self.node_type(*n) == t))
            .collect();
        filtered.choose(rng).copied()
    }

    /// Summary statistics (Table V).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            queries: self.nodes_of_type(NodeType::Query).len(),
            items: self.nodes_of_type(NodeType::Item).len(),
            ads: self.nodes_of_type(NodeType::Ad).len(),
            edges_per_relation: [
                self.num_edges(Relation::Click),
                self.num_edges(Relation::CoClick),
                self.num_edges(Relation::Semantic),
                self.num_edges(Relation::CoBid),
            ],
        }
    }

    /// Distinct leaf categories present in the graph.
    pub fn categories(&self) -> Vec<u32> {
        let mut cats: Vec<u32> = self
            .nodes_by_type_category
            .keys()
            .map(|(_, c)| *c)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        cats.sort_unstable();
        cats
    }
}

/// Incremental builder for [`HeteroGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    node_types: Vec<NodeType>,
    features: Vec<NodeFeatures>,
    // (src, dst) per relation; stored as directed pairs, both directions
    // inserted by `add_edge`.
    edges: [Vec<(NodeId, NodeId)>; 4],
    edge_seen: [HashSet<(u32, u32)>; 4],
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Register a node and return its id.
    pub fn add_node(&mut self, node_type: NodeType, features: NodeFeatures) -> NodeId {
        let id = NodeId(self.node_types.len() as u32);
        self.node_types.push(node_type);
        self.features.push(features);
        id
    }

    /// Number of nodes registered so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Add an undirected edge (both directions) of the given relation.
    /// A duplicate edge is stored once; edges carry no weight.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, relation: Relation) {
        if a == b {
            return;
        }
        let r = relation.index();
        if self.edge_seen[r].insert((a.0.min(b.0), a.0.max(b.0))) {
            self.edges[r].push((a, b));
            self.edges[r].push((b, a));
        }
    }

    /// Ingest one search session (Section IV-A.1, "Clicking/Co-clicking
    /// edges"): the query is linked to every clicked node with a click edge,
    /// and adjacent clicked nodes are linked with co-click edges.
    pub fn ingest_session(&mut self, session: &SessionRecord) {
        for &clicked in &session.clicks {
            self.add_edge(session.query, clicked, Relation::Click);
        }
        for pair in session.clicks.windows(2) {
            self.add_edge(pair[0], pair[1], Relation::CoClick);
        }
    }

    /// Link queries that share a clicked product with a query–query co-click
    /// edge (this realises the `q —co-click→ q` meta-path step of Table III).
    ///
    /// `max_pairs_per_node` bounds the quadratic blow-up on very popular
    /// products.
    pub fn add_query_coclick_edges(
        &mut self,
        sessions: &[SessionRecord],
        max_pairs_per_node: usize,
    ) {
        let mut clicked_by: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for s in sessions {
            for &c in &s.clicks {
                let qs = clicked_by.entry(c).or_default();
                if !qs.contains(&s.query) {
                    qs.push(s.query);
                }
            }
        }
        // HashMap iteration order is nondeterministic; sort so edge
        // insertion (and thus the adjacency order seen by seeded
        // samplers) is reproducible across runs
        let mut clicked: Vec<(NodeId, Vec<NodeId>)> = clicked_by.into_iter().collect();
        clicked.sort_unstable_by_key(|(node, _)| *node);
        for (_node, queries) in clicked {
            let mut added = 0;
            'outer: for i in 0..queries.len() {
                for j in (i + 1)..queries.len() {
                    self.add_edge(queries[i], queries[j], Relation::CoClick);
                    added += 1;
                    if added >= max_pairs_per_node {
                        break 'outer;
                    }
                }
            }
        }
    }

    /// Add semantic-similarity edges between queries whose term Jaccard
    /// similarity is at least `threshold` (Section IV-A.1, "Semantic
    /// similarity edges").  Uses an inverted term index so only queries
    /// sharing at least one term are compared.
    pub fn add_semantic_edges(&mut self, threshold: f64) {
        let query_ids: Vec<NodeId> = (0..self.node_types.len() as u32)
            .map(NodeId)
            .filter(|n| self.node_types[n.index()] == NodeType::Query)
            .collect();
        let mut by_term: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for &q in &query_ids {
            for &t in &self.features[q.index()].terms {
                by_term.entry(t).or_default().push(q);
            }
        }
        let mut candidate_pairs: HashSet<(u32, u32)> = HashSet::new();
        for queries in by_term.values() {
            for i in 0..queries.len() {
                for j in (i + 1)..queries.len() {
                    let a = queries[i].0.min(queries[j].0);
                    let b = queries[i].0.max(queries[j].0);
                    candidate_pairs.insert((a, b));
                }
            }
        }
        // sorted for run-to-run reproducibility (HashSet order varies)
        let mut pairs: Vec<(u32, u32)> = candidate_pairs.into_iter().collect();
        pairs.sort_unstable();
        for (a, b) in pairs {
            let ta = &self.features[a as usize].terms;
            let tb = &self.features[b as usize].terms;
            if jaccard(ta, tb) >= threshold {
                self.add_edge(NodeId(a), NodeId(b), Relation::Semantic);
            }
        }
    }

    /// Add co-bidding edges between ads that bid on at least one common
    /// keyword (Section IV-A.1, "Co-bidding edges").
    pub fn add_cobid_edges(&mut self) {
        let ad_ids: Vec<NodeId> = (0..self.node_types.len() as u32)
            .map(NodeId)
            .filter(|n| self.node_types[n.index()] == NodeType::Ad)
            .collect();
        let mut by_keyword: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for &a in &ad_ids {
            for &k in &self.features[a.index()].bid_words {
                by_keyword.entry(k).or_default().push(a);
            }
        }
        // sorted for run-to-run reproducibility (HashMap order varies)
        let mut keywords: Vec<u32> = by_keyword.keys().copied().collect();
        keywords.sort_unstable();
        for k in keywords {
            let ads = &by_keyword[&k];
            for i in 0..ads.len() {
                for j in (i + 1)..ads.len() {
                    self.add_edge(ads[i], ads[j], Relation::CoBid);
                }
            }
        }
    }

    /// Finalise the graph into CSR form.
    pub fn build(self) -> HeteroGraph {
        let n = self.node_types.len();
        let mut adj: [CsrAdj; 4] = Default::default();
        for (r, edges) in self.edges.iter().enumerate() {
            let mut per_node: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for &(src, dst) in edges {
                per_node[src.index()].push(dst);
            }
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets = Vec::with_capacity(edges.len());
            offsets.push(0);
            for list in per_node {
                targets.extend(list);
                offsets.push(targets.len());
            }
            adj[r] = CsrAdj { offsets, targets };
        }

        let mut nodes_by_type: [Vec<NodeId>; 3] = Default::default();
        let mut nodes_by_type_category: HashMap<(NodeType, u32), Vec<NodeId>> = HashMap::new();
        for (i, t) in self.node_types.iter().enumerate() {
            let id = NodeId(i as u32);
            nodes_by_type[t.index()].push(id);
            nodes_by_type_category
                .entry((*t, self.features[i].category))
                .or_default()
                .push(id);
        }

        HeteroGraph {
            node_types: self.node_types,
            features: self.features,
            adj,
            nodes_by_type,
            nodes_by_type_category,
        }
    }
}

/// Jaccard similarity between two term-ID sets (represented as slices; the
/// generator keeps them sorted but this does not rely on ordering).
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let sa: HashSet<u32> = a.iter().copied().collect();
    let sb: HashSet<u32> = b.iter().copied().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_graph() -> (HeteroGraph, Vec<NodeId>) {
        // q0, q1 (queries), i0, i1 (items), a0 (ad)
        let mut b = GraphBuilder::new();
        let q0 = b.add_node(NodeType::Query, NodeFeatures::query(1, vec![10, 11]));
        let q1 = b.add_node(NodeType::Query, NodeFeatures::query(1, vec![10, 12]));
        let i0 = b.add_node(NodeType::Item, NodeFeatures::item(1, vec![10], 1, 1));
        let i1 = b.add_node(NodeType::Item, NodeFeatures::item(2, vec![13], 2, 2));
        let a0 = b.add_node(NodeType::Ad, NodeFeatures::ad(1, vec![10], 1, 1, vec![100]));
        let a1 = b.add_node(
            NodeType::Ad,
            NodeFeatures::ad(1, vec![11], 1, 2, vec![100, 101]),
        );
        let session = SessionRecord {
            user: 0,
            query: q0,
            clicks: vec![i0, a0, i1],
        };
        b.ingest_session(&session);
        let session2 = SessionRecord {
            user: 1,
            query: q1,
            clicks: vec![i0],
        };
        b.ingest_session(&session2);
        b.add_query_coclick_edges(&[session, session2], 16);
        b.add_semantic_edges(0.3);
        b.add_cobid_edges();
        (b.build(), vec![q0, q1, i0, i1, a0, a1])
    }

    #[test]
    fn session_ingestion_creates_click_and_coclick_edges() {
        let (g, ids) = tiny_graph();
        let (q0, _q1, i0, i1, a0) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert!(g.has_edge(q0, i0, Relation::Click));
        assert!(g.has_edge(q0, a0, Relation::Click));
        assert!(g.has_edge(q0, i1, Relation::Click));
        // adjacent clicks: (i0, a0) and (a0, i1)
        assert!(g.has_edge(i0, a0, Relation::CoClick));
        assert!(g.has_edge(a0, i1, Relation::CoClick));
        assert!(!g.has_edge(i0, i1, Relation::CoClick));
    }

    #[test]
    fn query_coclick_edges_link_queries_sharing_a_click() {
        let (g, ids) = tiny_graph();
        assert!(g.has_edge(ids[0], ids[1], Relation::CoClick));
    }

    #[test]
    fn semantic_edges_respect_jaccard_threshold() {
        let (g, ids) = tiny_graph();
        // q0 terms {10,11}, q1 terms {10,12} → Jaccard 1/3 ≥ 0.3
        assert!(g.has_edge(ids[0], ids[1], Relation::Semantic));
    }

    #[test]
    fn cobid_edges_link_ads_sharing_keywords() {
        let (g, ids) = tiny_graph();
        assert!(g.has_edge(ids[4], ids[5], Relation::CoBid));
    }

    #[test]
    fn edges_are_symmetric() {
        let (g, ids) = tiny_graph();
        for r in Relation::ALL {
            for &a in &ids {
                for &b in g.neighbors(a, r) {
                    assert!(
                        g.has_edge(b, a, r),
                        "missing reverse edge {a:?} {b:?} {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_edges_are_stored_once() {
        let mut b = GraphBuilder::new();
        let q = b.add_node(NodeType::Query, NodeFeatures::query(0, vec![]));
        let i = b.add_node(NodeType::Item, NodeFeatures::item(0, vec![], 0, 0));
        b.add_edge(q, i, Relation::Click);
        b.add_edge(q, i, Relation::Click);
        let g = b.build();
        assert_eq!(g.num_edges(Relation::Click), 2); // one undirected edge, two directions
        assert_eq!(g.neighbors(q, Relation::Click), &[i]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = GraphBuilder::new();
        let q = b.add_node(NodeType::Query, NodeFeatures::query(0, vec![]));
        b.add_edge(q, q, Relation::Click);
        let g = b.build();
        assert_eq!(g.num_edges(Relation::Click), 0);
    }

    #[test]
    fn stats_count_nodes_and_edges() {
        let (g, _) = tiny_graph();
        let s = g.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.items, 2);
        assert_eq!(s.ads, 2);
        assert_eq!(s.total_nodes(), 6);
        assert_eq!(s.total_edges(), g.total_edges());
        assert!(s.total_edges() > 0);
    }

    #[test]
    fn nodes_by_type_and_category_lookup() {
        let (g, ids) = tiny_graph();
        assert_eq!(g.nodes_of_type(NodeType::Query).len(), 2);
        let items_cat1 = g.nodes_of_type_category(NodeType::Item, 1);
        assert_eq!(items_cat1, &[ids[2]]);
        assert_eq!(
            g.nodes_of_type_category(NodeType::Item, 99),
            &[] as &[NodeId]
        );
        assert_eq!(g.categories(), vec![1, 2]);
    }

    #[test]
    fn neighbor_sampling_filters_by_type() {
        let (g, ids) = tiny_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let sampled = g.sample_neighbors_of_type(ids[0], NodeType::Item, 10, &mut rng);
        assert!(!sampled.is_empty());
        assert!(sampled.iter().all(|n| g.node_type(*n) == NodeType::Item));
        let one = g.sample_neighbor(ids[0], Relation::Click, Some(NodeType::Ad), &mut rng);
        assert_eq!(one, Some(ids[4]));
        let none = g.sample_neighbor(ids[3], Relation::CoBid, None, &mut rng);
        assert_eq!(none, None);
    }

    #[test]
    fn jaccard_edge_cases() {
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }
}
