//! Walk-based Euclidean baselines (Table VI "E" block).
//!
//! DeepWalk, LINE (1st/2nd order), Node2Vec and Metapath2Vec all reduce to
//! skip-gram with negative sampling (SGNS) over node pairs; they differ only
//! in how the positive pairs are generated.  One shared SGNS trainer with
//! closed-form gradients therefore covers the whole family, with a
//! [`WalkStrategy`] per method.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use amcad_graph::{AliasTable, HeteroGraph, MetaPathSampler, NodeId, Relation, SamplerConfig};

use crate::export::PairScorer;

/// How positive training pairs are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum WalkStrategy {
    /// Uniform random walks over all relations (Perozzi et al. 2014).
    DeepWalk {
        /// Length of each walk.
        walk_length: usize,
        /// Walks started per node.
        walks_per_node: usize,
        /// Skip-gram window size.
        window: usize,
    },
    /// First-order LINE: direct edges as positive pairs (Tang et al. 2015).
    LineFirst,
    /// Second-order LINE: edges as (node, context) pairs trained against a
    /// separate context embedding.
    LineSecond,
    /// Biased second-order random walks (Grover & Leskovec 2016).
    Node2Vec {
        /// Return parameter `p`.
        p: f64,
        /// In-out parameter `q`.
        q: f64,
        /// Length of each walk.
        walk_length: usize,
        /// Walks started per node.
        walks_per_node: usize,
        /// Skip-gram window size.
        window: usize,
    },
    /// Meta-path guided walks (Dong et al. 2017) using the paper's six
    /// meta-paths.
    Metapath2Vec {
        /// Number of walks to draw.
        walks: usize,
    },
}

impl WalkStrategy {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WalkStrategy::DeepWalk { .. } => "DeepWalk",
            WalkStrategy::LineFirst => "LINE(1st)",
            WalkStrategy::LineSecond => "LINE(2nd)",
            WalkStrategy::Node2Vec { .. } => "Node2Vec",
            WalkStrategy::Metapath2Vec { .. } => "Metapath2Vec",
        }
    }

    /// Default settings used by the Table VI experiment at laptop scale.
    pub fn default_deepwalk() -> Self {
        WalkStrategy::DeepWalk {
            walk_length: 8,
            walks_per_node: 4,
            window: 2,
        }
    }

    /// Default Node2Vec settings.
    pub fn default_node2vec() -> Self {
        WalkStrategy::Node2Vec {
            p: 0.5,
            q: 2.0,
            walk_length: 8,
            walks_per_node: 4,
            window: 2,
        }
    }

    /// Default Metapath2Vec settings.
    pub fn default_metapath2vec() -> Self {
        WalkStrategy::Metapath2Vec { walks: 4_000 }
    }
}

/// Hyper-parameters of the SGNS trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgnsConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Training epochs over the generated pair set.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            negatives: 5,
            learning_rate: 0.05,
            epochs: 2,
            seed: 13,
        }
    }
}

/// A trained skip-gram baseline: one Euclidean embedding per node
/// (second-order objectives also train a context embedding per node, which
/// only the training loop needs).
#[derive(Debug, Clone)]
pub struct SgnsModel {
    name: String,
    dim: usize,
    emb: Vec<f64>,
    num_nodes: usize,
}

impl SgnsModel {
    /// Train a baseline of the given strategy on a graph.
    pub fn train(graph: &HeteroGraph, strategy: &WalkStrategy, config: &SgnsConfig) -> SgnsModel {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pairs = generate_pairs(graph, strategy, &mut rng);
        let use_context = matches!(strategy, WalkStrategy::LineSecond);

        let n = graph.num_nodes();
        let dim = config.dim;
        let mut emb: Vec<f64> = (0..n * dim)
            .map(|_| (rng.gen::<f64>() - 0.5) / dim as f64)
            .collect();
        let mut ctx: Vec<f64> = vec![0.0; n * dim];

        // Negative sampling distribution ∝ degree^0.75 (word2vec convention).
        let weights: Vec<f64> = (0..n as u32)
            .map(|i| (graph.total_degree(NodeId(i)) as f64).powf(0.75).max(1e-3))
            .collect();
        let neg_table = AliasTable::new(&weights);

        let lr = config.learning_rate;
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &pi in &order {
                let (u, v) = pairs[pi];
                sgns_update(
                    &mut emb,
                    &mut ctx,
                    dim,
                    u.index(),
                    v.index(),
                    true,
                    lr,
                    use_context,
                );
                for _ in 0..config.negatives {
                    let neg = neg_table.sample(&mut rng);
                    if neg == v.index() {
                        continue;
                    }
                    sgns_update(
                        &mut emb,
                        &mut ctx,
                        dim,
                        u.index(),
                        neg,
                        false,
                        lr,
                        use_context,
                    );
                }
            }
        }

        SgnsModel {
            name: strategy.name().to_string(),
            dim,
            emb,
            num_nodes: n,
        }
    }

    /// Embedding of a node.
    pub fn embedding(&self, node: NodeId) -> &[f64] {
        &self.emb[node.index() * self.dim..(node.index() + 1) * self.dim]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

impl PairScorer for SgnsModel {
    fn score_pair(&self, src: NodeId, dst: NodeId) -> f64 {
        let a = self.embedding(src);
        let b = self.embedding(dst);
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn scorer_name(&self) -> &str {
        &self.name
    }
}

/// One SGNS gradient step on a (source, target) pair.
///
/// The source vector always lives in `emb`; the target vector lives in `ctx`
/// for second-order objectives (LINE 2nd) and in `emb` otherwise.  Small
/// local copies sidestep any aliasing when `u == v`.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per input of the SGNS step: the two embedding tables, the dimension, the pair, its label, the learning rate and the objective switch"
)]
fn sgns_update(
    emb: &mut [f64],
    ctx: &mut [f64],
    dim: usize,
    u: usize,
    v: usize,
    positive: bool,
    lr: f64,
    use_context: bool,
) {
    let (u_off, v_off) = (u * dim, v * dim);
    let src: Vec<f64> = emb[u_off..u_off + dim].to_vec();
    let dst: Vec<f64> = if use_context {
        ctx[v_off..v_off + dim].to_vec()
    } else {
        emb[v_off..v_off + dim].to_vec()
    };
    let score: f64 = src.iter().zip(&dst).map(|(a, b)| a * b).sum();
    let label = if positive { 1.0 } else { 0.0 };
    let sigma = 1.0 / (1.0 + (-score).exp());
    let g = (sigma - label) * lr;
    for k in 0..dim {
        emb[u_off + k] -= g * dst[k];
        if use_context {
            ctx[v_off + k] -= g * src[k];
        } else {
            emb[v_off + k] -= g * src[k];
        }
    }
}

/// Generate positive pairs for a strategy.
fn generate_pairs(
    graph: &HeteroGraph,
    strategy: &WalkStrategy,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    match strategy {
        WalkStrategy::DeepWalk {
            walk_length,
            walks_per_node,
            window,
        } => walk_pairs(graph, *walk_length, *walks_per_node, *window, None, rng),
        WalkStrategy::Node2Vec {
            p,
            q,
            walk_length,
            walks_per_node,
            window,
        } => walk_pairs(
            graph,
            *walk_length,
            *walks_per_node,
            *window,
            Some((*p, *q)),
            rng,
        ),
        WalkStrategy::LineFirst | WalkStrategy::LineSecond => {
            let mut pairs = Vec::new();
            for node in graph.all_nodes() {
                for r in Relation::ALL {
                    for &n in graph.neighbors(node, r) {
                        pairs.push((node, n));
                    }
                }
            }
            pairs
        }
        WalkStrategy::Metapath2Vec { walks } => {
            let sampler = MetaPathSampler::new(
                graph,
                SamplerConfig {
                    same_category_positives: false,
                    ..Default::default()
                },
            );
            let mut pairs = Vec::new();
            for _ in 0..*walks {
                if let Some((_, seq)) = sampler.walk(rng) {
                    for (src, pos) in sampler.positive_pairs(&seq) {
                        pairs.push((src, pos));
                    }
                }
            }
            pairs
        }
    }
}

/// Uniform (DeepWalk) or biased (Node2Vec) random walks turned into
/// window-limited skip-gram pairs.
fn walk_pairs(
    graph: &HeteroGraph,
    walk_length: usize,
    walks_per_node: usize,
    window: usize,
    node2vec_pq: Option<(f64, f64)>,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for start in graph.all_nodes() {
        if graph.total_degree(start) == 0 {
            continue;
        }
        for _ in 0..walks_per_node {
            let mut walk = vec![start];
            let mut prev: Option<NodeId> = None;
            let mut current = start;
            for _ in 1..walk_length {
                let neighbors = graph.neighbors_all(current);
                if neighbors.is_empty() {
                    break;
                }
                let next = match node2vec_pq {
                    None => neighbors[rng.gen_range(0..neighbors.len())],
                    Some((p, q)) => {
                        // Rejection-sample the node2vec transition bias.
                        let mut chosen = neighbors[rng.gen_range(0..neighbors.len())];
                        for _ in 0..8 {
                            let cand = neighbors[rng.gen_range(0..neighbors.len())];
                            let weight = match prev {
                                None => 1.0,
                                Some(pv) if cand == pv => 1.0 / p,
                                Some(pv) => {
                                    if graph.neighbors_all(pv).contains(&cand) {
                                        1.0
                                    } else {
                                        1.0 / q
                                    }
                                }
                            };
                            let max_w = (1.0 / p).max(1.0).max(1.0 / q);
                            if rng.gen::<f64>() < weight / max_w {
                                chosen = cand;
                                break;
                            }
                        }
                        chosen
                    }
                };
                prev = Some(current);
                walk.push(next);
                current = next;
            }
            for i in 0..walk.len() {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(walk.len());
                for j in lo..hi {
                    if i != j && walk[i] != walk[j] {
                        pairs.push((walk[i], walk[j]));
                    }
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_datagen::{Dataset, WorldConfig};

    fn tiny() -> Dataset {
        Dataset::generate(&WorldConfig::tiny(41))
    }

    fn tiny_sgns() -> SgnsConfig {
        SgnsConfig {
            dim: 8,
            negatives: 3,
            learning_rate: 0.05,
            epochs: 1,
            seed: 41,
        }
    }

    #[test]
    fn all_strategies_train_and_produce_finite_embeddings() {
        let d = tiny();
        for strategy in [
            WalkStrategy::default_deepwalk(),
            WalkStrategy::LineFirst,
            WalkStrategy::LineSecond,
            WalkStrategy::default_node2vec(),
            WalkStrategy::Metapath2Vec { walks: 300 },
        ] {
            let model = SgnsModel::train(&d.graph, &strategy, &tiny_sgns());
            assert_eq!(model.num_nodes(), d.graph.num_nodes());
            assert_eq!(model.dim(), 8);
            let e = model.embedding(d.query_nodes[0]);
            assert!(e.iter().all(|x| x.is_finite()), "{}", strategy.name());
            assert!(model
                .score_pair(d.query_nodes[0], d.item_nodes[0])
                .is_finite());
        }
    }

    #[test]
    fn deepwalk_places_connected_nodes_closer_than_random_ones() {
        let d = tiny();
        let cfg = SgnsConfig {
            dim: 16,
            negatives: 5,
            learning_rate: 0.08,
            epochs: 3,
            seed: 2,
        };
        let model = SgnsModel::train(&d.graph, &WalkStrategy::default_deepwalk(), &cfg);
        // average score of actually-clicked (query, item) pairs versus
        // random cross-category pairs
        let mut rng = StdRng::seed_from_u64(3);
        let mut clicked = Vec::new();
        for s in d.train_sessions.iter().take(200) {
            for &c in &s.clicks {
                clicked.push(model.score_pair(s.query, c));
            }
        }
        let mut random = Vec::new();
        for _ in 0..clicked.len() {
            let q = d.query_nodes[rng.gen_range(0..d.query_nodes.len())];
            let i = d.item_nodes[rng.gen_range(0..d.item_nodes.len())];
            random.push(model.score_pair(q, i));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&clicked) > mean(&random),
            "clicked pairs should score higher: {} vs {}",
            mean(&clicked),
            mean(&random)
        );
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(WalkStrategy::default_deepwalk().name(), "DeepWalk");
        assert_eq!(WalkStrategy::LineFirst.name(), "LINE(1st)");
        assert_eq!(WalkStrategy::LineSecond.name(), "LINE(2nd)");
        assert_eq!(WalkStrategy::default_node2vec().name(), "Node2Vec");
        assert_eq!(WalkStrategy::default_metapath2vec().name(), "Metapath2Vec");
    }

    #[test]
    fn line_second_uses_context_embeddings() {
        // a second-order update scores u against v's *context* row and
        // trains that row, leaving v's node embedding untouched
        let mut emb = vec![0.5, -0.25, 0.1, 0.3];
        let mut ctx = vec![0.0; 4];
        sgns_update(&mut emb, &mut ctx, 2, 0, 1, true, 0.1, true);
        assert_eq!(&emb[2..], &[0.1, 0.3]);
        assert!(ctx[2..].iter().any(|x| *x != 0.0));

        // end to end: both LINE orders see the same pairs, RNG stream and
        // negatives, so their embeddings differ only if LINE(2nd) really
        // trains against the context table
        let d = tiny();
        let first = SgnsModel::train(&d.graph, &WalkStrategy::LineFirst, &tiny_sgns());
        let second = SgnsModel::train(&d.graph, &WalkStrategy::LineSecond, &tiny_sgns());
        assert!(
            d.graph
                .all_nodes()
                .any(|n| first.embedding(n) != second.embedding(n)),
            "LINE(2nd) trained exactly like LINE(1st)"
        );
    }
}
