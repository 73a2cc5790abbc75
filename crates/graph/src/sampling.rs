//! Meta-path guided random walks and training-sample generation.
//!
//! Section IV-A.2 of the paper: positive node pairs are extracted from
//! random walks that follow the six meta-paths of Table III, constrained to
//! stay within one leaf category; negatives are drawn both from the same
//! category (*hard*) and from other categories (*easy*) at a configurable
//! ratio (the paper uses easy:hard = 2:1).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::HeteroGraph;
use crate::types::{NodeId, NodeType, Relation};

/// One step of a meta-path: follow `relation` to a node of `target_type`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaPathStep {
    /// Relation to traverse.
    pub relation: Relation,
    /// Required type of the node reached by this step.
    pub target_type: NodeType,
}

/// A meta-path: a start node type followed by a sequence of typed steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPath {
    /// Human-readable name (used in logs and reports).
    pub name: &'static str,
    /// Type of the walk's start node.
    pub start: NodeType,
    /// Steps of the walk.
    pub steps: Vec<MetaPathStep>,
}

impl MetaPath {
    fn step(relation: Relation, target_type: NodeType) -> MetaPathStep {
        MetaPathStep {
            relation,
            target_type,
        }
    }

    /// The six meta-paths of Table III.
    pub fn paper_paths() -> Vec<MetaPath> {
        use NodeType::*;
        use Relation::*;
        vec![
            MetaPath {
                name: "q-coclick-q-semantic-q",
                start: Query,
                steps: vec![Self::step(CoClick, Query), Self::step(Semantic, Query)],
            },
            MetaPath {
                name: "q-click-i-coclick-i",
                start: Query,
                steps: vec![Self::step(Click, Item), Self::step(CoClick, Item)],
            },
            MetaPath {
                name: "q-click-a-cobid-a",
                start: Query,
                steps: vec![Self::step(Click, Ad), Self::step(CoBid, Ad)],
            },
            MetaPath {
                name: "i-click-q-semantic-q",
                start: Item,
                steps: vec![Self::step(Click, Query), Self::step(Semantic, Query)],
            },
            MetaPath {
                name: "i-coclick-i-coclick-i",
                start: Item,
                steps: vec![Self::step(CoClick, Item), Self::step(CoClick, Item)],
            },
            MetaPath {
                name: "i-coclick-a-cobid-a",
                start: Item,
                steps: vec![Self::step(CoClick, Ad), Self::step(CoBid, Ad)],
            },
        ]
    }
}

/// A training sample: source node, positive node and `K` sampled negatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainSample {
    /// Source node of the positive pair.
    pub src: NodeId,
    /// Positive (related) node.
    pub pos: NodeId,
    /// Negative nodes of the same type as `pos`.
    pub negs: Vec<NodeId>,
    /// Index of the meta-path that generated the pair (identifies the edge
    /// relation for the edge-level scorer).
    pub meta_path: usize,
}

/// Configuration of the training-sample generator.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Negative samples per positive pair.
    pub negatives_per_positive: usize,
    /// Fraction of negatives drawn from the *same* category as the positive
    /// ("hard"); the remainder come from other categories ("easy").  The
    /// paper uses easy:hard = 2:1, i.e. `hard_fraction = 1/3`.
    pub hard_fraction: f64,
    /// Require the positive pair to share the source node's leaf category.
    pub same_category_positives: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            negatives_per_positive: 6,
            hard_fraction: 1.0 / 3.0,
            same_category_positives: true,
        }
    }
}

/// Meta-path guided training-sample generator.
pub struct MetaPathSampler<'g> {
    graph: &'g HeteroGraph,
    paths: Vec<MetaPath>,
    config: SamplerConfig,
}

impl<'g> MetaPathSampler<'g> {
    /// Create a sampler over the paper's six meta-paths.
    pub fn new(graph: &'g HeteroGraph, config: SamplerConfig) -> Self {
        MetaPathSampler {
            graph,
            paths: MetaPath::paper_paths(),
            config,
        }
    }

    /// The meta-paths used by this sampler.
    pub fn paths(&self) -> &[MetaPath] {
        &self.paths
    }

    /// Walk one randomly chosen meta-path from a random start node and
    /// return the visited node sequence (including the start).  Returns
    /// `None` if the walk dead-ends before completing every step.
    pub fn walk<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(usize, Vec<NodeId>)> {
        let path_idx = rng.gen_range(0..self.paths.len());
        let path = &self.paths[path_idx];
        let starts = self.graph.nodes_of_type(path.start);
        if starts.is_empty() {
            return None;
        }
        let start = *starts.choose(rng)?;
        let mut seq = vec![start];
        let mut current = start;
        for step in &path.steps {
            let next =
                self.graph
                    .sample_neighbor(current, step.relation, Some(step.target_type), rng)?;
            seq.push(next);
            current = next;
        }
        Some((path_idx, seq))
    }

    /// Extract positive pairs `<seq[0], seq[i]>` for `i ≥ 1` from a walk
    /// (sliding window anchored at the source, as in Table III), applying
    /// the same-category constraint if configured.
    pub fn positive_pairs(&self, seq: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        if seq.len() < 2 {
            return Vec::new();
        }
        let src = seq[0];
        let src_cat = self.graph.category(src);
        seq[1..]
            .iter()
            .filter(|&&n| n != src)
            .filter(|&&n| !self.config.same_category_positives || self.graph.category(n) == src_cat)
            .map(|&n| (src, n))
            .collect()
    }

    /// Sample `count` negative nodes for a positive pair: negatives share
    /// the positive's node type; hard negatives additionally share its
    /// category, easy negatives must not.
    pub fn sample_negatives<R: Rng + ?Sized>(
        &self,
        pos: NodeId,
        count: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let pos_type = self.graph.node_type(pos);
        let pos_cat = self.graph.category(pos);
        let hard_count = ((count as f64) * self.config.hard_fraction).round() as usize;
        let mut negs = Vec::with_capacity(count);

        let same_cat = self.graph.nodes_of_type_category(pos_type, pos_cat);
        let all = self.graph.nodes_of_type(pos_type);

        let draw = |pool: &[NodeId], exclude_cat: Option<u32>, rng: &mut R| -> Option<NodeId> {
            if pool.is_empty() {
                return None;
            }
            for _ in 0..8 {
                let cand = pool[rng.gen_range(0..pool.len())];
                if cand == pos {
                    continue;
                }
                if let Some(cat) = exclude_cat {
                    if self.graph.category(cand) == cat {
                        continue;
                    }
                }
                return Some(cand);
            }
            None
        };

        for i in 0..count {
            let neg = if i < hard_count {
                draw(same_cat, None, rng).or_else(|| draw(all, None, rng))
            } else {
                draw(all, Some(pos_cat), rng).or_else(|| draw(all, None, rng))
            };
            if let Some(n) = neg {
                negs.push(n);
            }
        }
        negs
    }

    /// Generate up to `count` full training samples.
    pub fn sample_batch<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<TrainSample> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0;
        let max_attempts = count * 20 + 100;
        while out.len() < count && attempts < max_attempts {
            attempts += 1;
            let Some((path_idx, seq)) = self.walk(rng) else {
                continue;
            };
            for (src, pos) in self.positive_pairs(&seq) {
                if out.len() >= count {
                    break;
                }
                let negs = self.sample_negatives(pos, self.config.negatives_per_positive, rng);
                if negs.is_empty() {
                    continue;
                }
                out.push(TrainSample {
                    src,
                    pos,
                    negs,
                    meta_path: path_idx,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::types::{NodeFeatures, SessionRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small but well-connected graph: 2 categories, queries/items/ads per
    /// category, enough edges for every meta-path to complete.
    fn dense_graph() -> HeteroGraph {
        let mut b = GraphBuilder::new();
        let mut queries = Vec::new();
        let mut items = Vec::new();
        let mut ads = Vec::new();
        for cat in 0..2u32 {
            for k in 0..4u32 {
                let term_base = cat * 10;
                queries.push(b.add_node(
                    NodeType::Query,
                    NodeFeatures::query(cat, vec![term_base, term_base + k]),
                ));
                items.push(b.add_node(
                    NodeType::Item,
                    NodeFeatures::item(cat, vec![term_base + k], cat, cat),
                ));
                ads.push(b.add_node(
                    NodeType::Ad,
                    NodeFeatures::ad(
                        cat,
                        vec![term_base + k],
                        cat,
                        cat,
                        vec![cat * 100, cat * 100 + k % 2],
                    ),
                ));
            }
        }
        // sessions: each query clicks two items and an ad of its category
        let mut sessions = Vec::new();
        for cat in 0..2usize {
            for k in 0..4usize {
                let q = queries[cat * 4 + k];
                let clicks = vec![
                    items[cat * 4 + k],
                    ads[cat * 4 + k],
                    items[cat * 4 + (k + 1) % 4],
                ];
                let s = SessionRecord {
                    user: (cat * 4 + k) as u32,
                    query: q,
                    clicks,
                };
                b.ingest_session(&s);
                sessions.push(s);
            }
        }
        b.add_query_coclick_edges(&sessions, 32);
        b.add_semantic_edges(0.2);
        b.add_cobid_edges();
        b.build()
    }

    #[test]
    fn paper_paths_cover_all_six_definitions() {
        let paths = MetaPath::paper_paths();
        assert_eq!(paths.len(), 6);
        assert!(paths.iter().all(|p| p.steps.len() == 2));
        assert_eq!(
            paths.iter().filter(|p| p.start == NodeType::Query).count(),
            3
        );
        assert_eq!(
            paths.iter().filter(|p| p.start == NodeType::Item).count(),
            3
        );
    }

    #[test]
    fn walks_respect_meta_path_types() {
        let g = dense_graph();
        let sampler = MetaPathSampler::new(&g, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut completed = 0;
        for _ in 0..200 {
            if let Some((idx, seq)) = sampler.walk(&mut rng) {
                completed += 1;
                let path = &sampler.paths()[idx];
                assert_eq!(g.node_type(seq[0]), path.start);
                assert_eq!(seq.len(), path.steps.len() + 1);
                for (node, step) in seq[1..].iter().zip(&path.steps) {
                    assert_eq!(g.node_type(*node), step.target_type);
                }
            }
        }
        assert!(completed > 50, "most walks should complete: {completed}");
    }

    #[test]
    fn positive_pairs_share_category_when_required() {
        let g = dense_graph();
        let sampler = MetaPathSampler::new(&g, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            if let Some((_, seq)) = sampler.walk(&mut rng) {
                for (src, pos) in sampler.positive_pairs(&seq) {
                    assert_eq!(g.category(src), g.category(pos));
                    assert_ne!(src, pos);
                }
            }
        }
    }

    #[test]
    fn negatives_have_matching_type_and_requested_hardness_mix() {
        let g = dense_graph();
        let config = SamplerConfig {
            negatives_per_positive: 6,
            hard_fraction: 0.5,
            same_category_positives: true,
        };
        let sampler = MetaPathSampler::new(&g, config);
        let mut rng = StdRng::seed_from_u64(13);
        let pos = g.nodes_of_type(NodeType::Item)[0];
        let negs = sampler.sample_negatives(pos, 6, &mut rng);
        assert!(!negs.is_empty());
        for n in &negs {
            assert_eq!(g.node_type(*n), NodeType::Item);
            assert_ne!(*n, pos);
        }
        // with hard_fraction 0.5 at least one hard (same category) negative
        // should usually appear
        let same_cat = negs
            .iter()
            .filter(|n| g.category(**n) == g.category(pos))
            .count();
        assert!(same_cat >= 1);
    }

    #[test]
    fn batches_reach_requested_size_on_well_connected_graphs() {
        let g = dense_graph();
        let sampler = MetaPathSampler::new(&g, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(14);
        let batch = sampler.sample_batch(64, &mut rng);
        assert_eq!(batch.len(), 64);
        for s in &batch {
            assert!(!s.negs.is_empty());
            assert!(s.meta_path < 6);
            // positive node type must match the final step of the meta-path
            let path = &sampler.paths()[s.meta_path];
            let allowed: Vec<NodeType> = path.steps.iter().map(|st| st.target_type).collect();
            assert!(allowed.contains(&g.node_type(s.pos)));
        }
    }

    #[test]
    fn sampler_is_deterministic_given_a_seed() {
        let g = dense_graph();
        let sampler = MetaPathSampler::new(&g, SamplerConfig::default());
        let a = sampler.sample_batch(16, &mut StdRng::seed_from_u64(99));
        let b = sampler.sample_batch(16, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_walk_yields_no_pairs() {
        let g = dense_graph();
        let sampler = MetaPathSampler::new(&g, SamplerConfig::default());
        assert!(sampler.positive_pairs(&[]).is_empty());
        assert!(sampler.positive_pairs(&[NodeId(0)]).is_empty());
    }
}
