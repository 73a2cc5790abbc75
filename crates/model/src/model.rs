//! The adaptive mixed-curvature representation model (Section IV-B).
//!
//! [`AmcadModel`] owns every trainable parameter and implements the forward
//! pass on an autodiff tape:
//!
//! * **Node-level adaptive mixed-curvature encoder** — inductive feature
//!   embeddings mapped into each subspace by the exponential map (Eq. 4),
//!   tangent-space GCN context encoding (Eq. 5–6), and space fusion
//!   (Eq. 7–8).
//! * **Edge-level adaptive mixed-curvature scorer** — per-relation edge-space
//!   projection (Eq. 9–10) and attention-based subspace-distance combination
//!   (Eq. 11–14).
//! * **Loss** — triplet loss over Fermi–Dirac similarities (Eq. 15) plus the
//!   curved-space origin regulariser (Eq. 16).
//!
//! Every restricted variant of the paper (single spaces, fixed product
//! spaces, the ablations of Table VII) is obtained purely through
//! [`AmcadConfig`] toggles — the forward pass below is the only model code.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amcad_autodiff::{manifold_ops as mops, Batch, DenseId, ParamStore, TableId, Tape, Var};
use amcad_graph::{HeteroGraph, NodeId, NodeType, TrainSample};

use crate::config::AmcadConfig;
use crate::relation::RelationKind;

/// Key of a node-level curvature parameter: (subspace, node type).
type NodeKappaKey = (usize, usize);
/// Key of an edge-level curvature parameter: (subspace, relation index).
type EdgeKappaKey = (usize, usize);

/// The AMCAD model: configuration, parameter store and parameter handles.
pub struct AmcadModel {
    config: AmcadConfig,
    store: ParamStore,
    /// node id → index within its node type (ID-feature row).
    type_index: Vec<u32>,
    /// node id → node type (copied from the graph for cheap lookup).
    node_types: Vec<NodeType>,
    num_categories: usize,
    vocab_size: usize,

    // parameter handles
    id_tables: HashMap<(usize, usize), TableId>, // (type, subspace)
    cat_tables: Vec<TableId>,                    // per subspace
    term_tables: Vec<TableId>,                   // per subspace
    node_kappas: HashMap<NodeKappaKey, DenseId>,
    edge_kappas: HashMap<EdgeKappaKey, DenseId>,
    shared_edge_kappas: Vec<DenseId>, // per subspace, used when edge_projection = false
    gcn_weights: HashMap<(usize, usize, usize), DenseId>, // (subspace, type, layer)
    fusion_weights: HashMap<(usize, usize), DenseId>, // (subspace, type)
    proj_weights: HashMap<(usize, usize), DenseId>, // (subspace, type)
    attn_weights: HashMap<usize, DenseId>, // per type
}

/// A node embedded in the product space: one tape variable per subspace,
/// each a point of the subspace with the node-type curvature.
pub struct EncodedNode {
    /// Per-subspace points (row vectors of the subspace dimension).
    pub subspaces: Vec<Var>,
    /// Node type of the encoded node.
    pub node_type: NodeType,
}

/// Per-batch tape context: caches parameter leaves so a parameter bound
/// several times in one batch contributes one leaf (gradients still
/// accumulate correctly either way; caching just keeps the tape small).
pub struct Ctx {
    /// The autodiff tape of this batch.
    pub tape: Tape,
    /// The parameter-binding record of this batch.
    pub batch: Batch,
    dense_cache: HashMap<DenseId, Var>,
    rng: StdRng,
}

impl Ctx {
    fn new(seed: u64) -> Self {
        Ctx {
            tape: Tape::new(),
            batch: Batch::new(),
            dense_cache: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

/// The outcome of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean triplet + regularisation loss of the batch.
    pub loss: f64,
    /// Pre-clip global gradient norm.
    pub grad_norm: f64,
    /// Number of samples in the batch.
    pub samples: usize,
}

impl AmcadModel {
    /// Build a model for a graph: registers every parameter (embedding
    /// tables sized to the graph's vocabularies, GCN / fusion / projection /
    /// attention weights and all curvatures).
    pub fn new(config: AmcadConfig, graph: &HeteroGraph) -> Self {
        let mut store = ParamStore::new(config.optimizer, config.seed);

        // --- per-type ID indexing ------------------------------------------
        let mut type_counts = [0u32; 3];
        let mut type_index = vec![0u32; graph.num_nodes()];
        let mut node_types = Vec::with_capacity(graph.num_nodes());
        for node in graph.all_nodes() {
            let t = graph.node_type(node);
            node_types.push(t);
            type_index[node.index()] = type_counts[t.index()];
            type_counts[t.index()] += 1;
        }
        let num_categories = graph
            .all_nodes()
            .map(|n| graph.category(n) as usize)
            .max()
            .unwrap_or(0)
            + 1;
        let vocab_size = graph
            .all_nodes()
            .flat_map(|n| graph.features(n).terms.iter().copied())
            .max()
            .unwrap_or(0) as usize
            + 1;

        let m_count = config.num_subspaces();
        let d = config.subspace_dim();
        let init = 0.05;

        // --- embedding tables ------------------------------------------------
        let mut id_tables = HashMap::new();
        let mut cat_tables = Vec::new();
        let mut term_tables = Vec::new();
        for m in 0..m_count {
            cat_tables.push(store.embedding(
                &format!("cat_m{m}"),
                num_categories.max(1),
                config.category_dim,
                init,
            ));
            term_tables.push(store.embedding(
                &format!("term_m{m}"),
                vocab_size.max(1),
                config.term_dim,
                init,
            ));
            for t in NodeType::ALL {
                let rows = type_counts[t.index()].max(1) as usize;
                id_tables.insert(
                    (t.index(), m),
                    store.embedding(&format!("id_{}_m{m}", t.name()), rows, config.id_dim, init),
                );
            }
        }

        // --- curvatures -------------------------------------------------------
        let mut node_kappas = HashMap::new();
        let mut edge_kappas = HashMap::new();
        let mut shared_edge_kappas = Vec::new();
        for (m, sub) in config.subspaces.iter().enumerate() {
            let (kappa, trainable) = (sub.kind.default_curvature(), sub.kind.trainable());
            for t in NodeType::ALL {
                node_kappas.insert(
                    (m, t.index()),
                    store.scalar_param(&format!("kappa_node_m{m}_{}", t.name()), kappa, trainable),
                );
            }
            for r in RelationKind::ALL {
                edge_kappas.insert(
                    (m, r.index()),
                    store.scalar_param(&format!("kappa_edge_m{m}_{}", r.name()), kappa, trainable),
                );
            }
            shared_edge_kappas.push(store.scalar_param(
                &format!("kappa_edge_m{m}_shared"),
                kappa,
                trainable,
            ));
        }

        // --- weights ----------------------------------------------------------
        let mut gcn_weights = HashMap::new();
        let mut fusion_weights = HashMap::new();
        let mut proj_weights = HashMap::new();
        let mut attn_weights = HashMap::new();
        let wscale = (1.0 / d as f64).sqrt();
        for m in 0..m_count {
            for t in NodeType::ALL {
                for l in 0..config.gcn_layers {
                    gcn_weights.insert(
                        (m, t.index(), l),
                        store.dense(&format!("gcn_m{m}_{}_l{l}", t.name()), 2 * d, d, wscale),
                    );
                }
                fusion_weights.insert(
                    (m, t.index()),
                    store.dense(&format!("fusion_m{m}_{}", t.name()), 2 * d, d, wscale),
                );
                proj_weights.insert(
                    (m, t.index()),
                    store.dense(&format!("proj_m{m}_{}", t.name()), d, d, wscale),
                );
            }
        }
        for t in NodeType::ALL {
            attn_weights.insert(
                t.index(),
                store.dense(&format!("attn_{}", t.name()), m_count * d, m_count, wscale),
            );
        }

        AmcadModel {
            config,
            store,
            type_index,
            node_types,
            num_categories,
            vocab_size,
            id_tables,
            cat_tables,
            term_tables,
            node_kappas,
            edge_kappas,
            shared_edge_kappas,
            gcn_weights,
            fusion_weights,
            proj_weights,
            attn_weights,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &AmcadConfig {
        &self.config
    }

    /// The parameter store (read access, e.g. for reporting curvatures).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_parameters()
    }

    /// Current node-level curvature of subspace `m` for nodes of type `t`.
    pub fn node_kappa(&self, m: usize, t: NodeType) -> f64 {
        self.store.scalar_value(self.node_kappas[&(m, t.index())])
    }

    /// Current edge-level curvature of subspace `m` for relation `kind`.
    pub fn edge_kappa(&self, m: usize, kind: RelationKind) -> f64 {
        if self.config.edge_projection {
            self.store
                .scalar_value(self.edge_kappas[&(m, kind.index())])
        } else {
            self.store.scalar_value(self.shared_edge_kappas[m])
        }
    }

    /// Start a fresh batch context.
    pub fn begin_batch(&self, seed: u64) -> Ctx {
        Ctx::new(seed ^ self.config.seed)
    }

    fn use_dense_cached(&self, ctx: &mut Ctx, id: DenseId) -> Var {
        if let Some(v) = ctx.dense_cache.get(&id) {
            return *v;
        }
        let v = self.store.use_dense(&mut ctx.tape, &mut ctx.batch, id);
        ctx.dense_cache.insert(id, v);
        v
    }

    fn node_kappa_var(&self, ctx: &mut Ctx, m: usize, t: NodeType) -> Var {
        self.use_dense_cached(ctx, self.node_kappas[&(m, t.index())])
    }

    fn edge_kappa_var(&self, ctx: &mut Ctx, m: usize, kind: RelationKind) -> Var {
        let id = if self.config.edge_projection {
            self.edge_kappas[&(m, kind.index())]
        } else {
            self.shared_edge_kappas[m]
        };
        self.use_dense_cached(ctx, id)
    }

    // ------------------------------------------------------------------
    // Node-level adaptive mixed-curvature encoder
    // ------------------------------------------------------------------

    /// Inductive feature embedding of a node in subspace `m` (Eq. 4): the
    /// concatenated ID / category / term feature embeddings, exponentially
    /// mapped into the subspace.
    fn inductive_embedding(
        &mut self,
        ctx: &mut Ctx,
        graph: &HeteroGraph,
        node: NodeId,
        m: usize,
    ) -> Var {
        let t = self.node_types[node.index()];
        let id_table = self.id_tables[&(t.index(), m)];
        let cat_table = self.cat_tables[m];
        let term_table = self.term_tables[m];

        let id_row = self.type_index[node.index()] as usize;
        let id_emb = self
            .store
            .use_row(&mut ctx.tape, &mut ctx.batch, id_table, id_row);

        let category = graph.category(node) as usize;
        let cat_row = category.min(self.num_categories.saturating_sub(1));
        let cat_emb = self
            .store
            .use_row(&mut ctx.tape, &mut ctx.batch, cat_table, cat_row);

        // average of term embeddings (queries/items/ads have ≥ 1 term in the
        // generated worlds; an all-zero vector is used if none).
        let terms = graph.features(node).terms.clone();
        let term_emb = if terms.is_empty() {
            ctx.tape.row(vec![0.0; self.config.term_dim])
        } else {
            let mut acc = None;
            for &term in &terms {
                let row = (term as usize).min(self.vocab_size.saturating_sub(1));
                let e = self
                    .store
                    .use_row(&mut ctx.tape, &mut ctx.batch, term_table, row);
                acc = Some(match acc {
                    None => e,
                    Some(prev) => ctx.tape.add(prev, e),
                });
            }
            let summed = acc.expect("at least one term");
            ctx.tape.scale(summed, 1.0 / terms.len() as f64)
        };

        let concat = ctx.tape.concat_cols(&[id_emb, cat_emb, term_emb]);
        let kappa = self.node_kappa_var(ctx, m, t);
        mops::exp0(&mut ctx.tape, concat, kappa)
    }

    /// Encode a node through `layer` rounds of GCN context encoding
    /// (recursive neighbour expansion), returning the per-subspace points.
    fn encode_with_layers(
        &mut self,
        ctx: &mut Ctx,
        graph: &HeteroGraph,
        node: NodeId,
        layer: usize,
    ) -> Vec<Var> {
        let t = self.node_types[node.index()];
        if layer == 0 {
            return (0..self.config.num_subspaces())
                .map(|m| self.inductive_embedding(ctx, graph, node, m))
                .collect();
        }

        // Sample the neighbour set once; reuse it across subspaces so each
        // subspace sees the same local structure.
        let fanout = self.config.gcn_fanout;
        let mut neighbor_sets: Vec<(NodeType, Vec<NodeId>)> = Vec::new();
        for nt in NodeType::ALL {
            let sampled = graph.sample_neighbors_of_type(node, nt, fanout, &mut ctx.rng);
            if !sampled.is_empty() {
                neighbor_sets.push((nt, sampled));
            }
        }
        // Recursively encode self and neighbours at the previous layer.
        let self_prev = self.encode_with_layers(ctx, graph, node, layer - 1);
        let neighbor_prev: Vec<(NodeType, Vec<Vec<Var>>)> = neighbor_sets
            .iter()
            .map(|(nt, nodes)| {
                (
                    *nt,
                    nodes
                        .iter()
                        .map(|n| self.encode_with_layers(ctx, graph, *n, layer - 1))
                        .collect(),
                )
            })
            .collect();

        let d = self.config.subspace_dim();
        let mut out = Vec::with_capacity(self.config.num_subspaces());
        for m in 0..self.config.num_subspaces() {
            let kappa_self = self.node_kappa_var(ctx, m, t);
            // Aggregate neighbour information in the shared tangent space at
            // the origin (Eq. 5): per neighbour type, mean of log-mapped
            // embeddings; types are then summed.
            let mut agg: Option<Var> = None;
            for (nt, encoded) in &neighbor_prev {
                let kappa_nt = self.node_kappa_var(ctx, m, *nt);
                let mut type_sum: Option<Var> = None;
                for enc in encoded {
                    let logged = mops::log0(&mut ctx.tape, enc[m], kappa_nt);
                    type_sum = Some(match type_sum {
                        None => logged,
                        Some(prev) => ctx.tape.add(prev, logged),
                    });
                }
                if let Some(sum) = type_sum {
                    let mean = ctx.tape.scale(sum, 1.0 / encoded.len() as f64);
                    agg = Some(match agg {
                        None => mean,
                        Some(prev) => ctx.tape.add(prev, mean),
                    });
                }
            }
            let agg = agg.unwrap_or_else(|| ctx.tape.row(vec![0.0; d]));
            let self_log = mops::log0(&mut ctx.tape, self_prev[m], kappa_self);
            let hhat = ctx.tape.concat_cols(&[agg, self_log]);
            // Eq. 6: h = σ_{κ→κ}(W ⊗_κ exp_0(ĥ)) = exp_0(tanh(ĥ · W)).
            let w = self.use_dense_cached(ctx, self.gcn_weights[&(m, t.index(), layer - 1)]);
            let lin = ctx.tape.matmul(hhat, w);
            let act = ctx.tape.tanh(lin);
            out.push(mops::exp0(&mut ctx.tape, act, kappa_self));
        }
        out
    }

    /// Space fusion (Eq. 7–8): interact each subspace with the average of
    /// all subspaces in the global tangent space.
    fn fuse(&mut self, ctx: &mut Ctx, node_type: NodeType, points: Vec<Var>) -> Vec<Var> {
        if !self.config.space_fusion || points.len() < 2 {
            return points;
        }
        let m_count = points.len();
        let logs: Vec<Var> = (0..m_count)
            .map(|m| {
                let kappa = self.node_kappa_var(ctx, m, node_type);
                mops::log0(&mut ctx.tape, points[m], kappa)
            })
            .collect();
        let mut sum = logs[0];
        for l in &logs[1..] {
            sum = ctx.tape.add(sum, *l);
        }
        let global = ctx.tape.scale(sum, 1.0 / m_count as f64);
        (0..m_count)
            .map(|m| {
                let concat = ctx.tape.concat_cols(&[global, logs[m]]);
                let w = self.use_dense_cached(ctx, self.fusion_weights[&(m, node_type.index())]);
                let lin = ctx.tape.matmul(concat, w);
                let kappa = self.node_kappa_var(ctx, m, node_type);
                mops::exp0(&mut ctx.tape, lin, kappa)
            })
            .collect()
    }

    /// Full node-level encoder: inductive embedding → GCN context encoding →
    /// space fusion.
    pub fn encode_node(&mut self, ctx: &mut Ctx, graph: &HeteroGraph, node: NodeId) -> EncodedNode {
        let t = self.node_types[node.index()];
        let points = self.encode_with_layers(ctx, graph, node, self.config.gcn_layers);
        let fused = self.fuse(ctx, t, points);
        EncodedNode {
            subspaces: fused,
            node_type: t,
        }
    }

    // ------------------------------------------------------------------
    // Edge-level adaptive mixed-curvature scorer
    // ------------------------------------------------------------------

    /// Project a node's subspace points into the edge space of `kind`
    /// (Eq. 9): `proj_r(x^{m,t}) = σ_{κ_{m,t}→κ_{m,r}}(W₂^{m,t} ⊗ x^{m,t})`.
    pub fn project_to_edge_space(
        &mut self,
        ctx: &mut Ctx,
        encoded: &EncodedNode,
        kind: RelationKind,
    ) -> Vec<Var> {
        let t = encoded.node_type;
        (0..self.config.num_subspaces())
            .map(|m| {
                let kappa_node = self.node_kappa_var(ctx, m, t);
                let kappa_edge = self.edge_kappa_var(ctx, m, kind);
                let w = self.use_dense_cached(ctx, self.proj_weights[&(m, t.index())]);
                let logged = mops::log0(&mut ctx.tape, encoded.subspaces[m], kappa_node);
                let lin = ctx.tape.matmul(logged, w);
                let act = ctx.tape.tanh(lin);
                mops::exp0(&mut ctx.tape, act, kappa_edge)
            })
            .collect()
    }

    /// Node-level attention weights over subspaces (Eq. 12–13), computed
    /// from the projected points.  Returns a softmax row vector of length M.
    pub fn attention_weights(
        &mut self,
        ctx: &mut Ctx,
        node_type: NodeType,
        projected: &[Var],
    ) -> Var {
        let m_count = projected.len();
        if !self.config.attention_combination {
            // uniform weights summing to 1 (a constant — no gradient path).
            return ctx.tape.row(vec![1.0 / m_count as f64; m_count]);
        }
        let concat = ctx.tape.concat_cols(projected);
        let w = self.use_dense_cached(ctx, self.attn_weights[&node_type.index()]);
        let alpha = ctx.tape.matmul(concat, w);
        ctx.tape.softmax(alpha)
    }

    /// Mixed-curvature distance between two encoded nodes under relation
    /// `kind` (Eq. 10 + Eq. 14).
    pub fn score_distance(
        &mut self,
        ctx: &mut Ctx,
        src: &EncodedNode,
        dst: &EncodedNode,
        kind: RelationKind,
    ) -> Var {
        let proj_src = self.project_to_edge_space(ctx, src, kind);
        let proj_dst = self.project_to_edge_space(ctx, dst, kind);
        let w_src = self.attention_weights(ctx, src.node_type, &proj_src);
        let w_dst = self.attention_weights(ctx, dst.node_type, &proj_dst);
        let weights = ctx.tape.add(w_src, w_dst); // Eq. 11

        let mut dist_terms = Vec::with_capacity(proj_src.len());
        for m in 0..proj_src.len() {
            let kappa_edge = self.edge_kappa_var(ctx, m, kind);
            let d_m = mops::distance(&mut ctx.tape, proj_src[m], proj_dst[m], kappa_edge);
            dist_terms.push(d_m);
        }
        let dists = ctx.tape.concat_cols(&dist_terms);
        let weighted = ctx.tape.mul(weights, dists);
        ctx.tape.sum(weighted)
    }

    /// Curved-space regularisation term (Eq. 16): distance of each subspace
    /// point from the origin.
    fn origin_regulariser(&mut self, ctx: &mut Ctx, encoded: &EncodedNode) -> Var {
        let mut total: Option<Var> = None;
        for m in 0..encoded.subspaces.len() {
            let kappa = self.node_kappa_var(ctx, m, encoded.node_type);
            let n = ctx.tape.norm(encoded.subspaces[m], 1e-12);
            let an = ctx.tape.atan_kappa(n, kappa);
            let d = ctx.tape.scale(an, 2.0);
            total = Some(match total {
                None => d,
                Some(prev) => ctx.tape.add(prev, d),
            });
        }
        total.expect("at least one subspace")
    }

    /// Triplet loss of one training sample (Eq. 15) plus regularisation
    /// (Eq. 16).  Returns the scalar loss variable.
    pub fn sample_loss(&mut self, ctx: &mut Ctx, graph: &HeteroGraph, sample: &TrainSample) -> Var {
        let src = self.encode_node(ctx, graph, sample.src);
        let pos = self.encode_node(ctx, graph, sample.pos);
        let kind =
            RelationKind::between(src.node_type, pos.node_type).unwrap_or(RelationKind::QueryItem);

        let lc = self.config.loss;
        let d_pos = self.score_distance(ctx, &src, &pos, kind);
        let sim_pos =
            mops::fermi_dirac(&mut ctx.tape, d_pos, lc.fermi_radius, lc.fermi_temperature);

        let mut triplet_terms = Vec::with_capacity(sample.negs.len());
        let mut reg_terms = vec![
            self.origin_regulariser(ctx, &src),
            self.origin_regulariser(ctx, &pos),
        ];
        for &neg in &sample.negs {
            let neg_enc = self.encode_node(ctx, graph, neg);
            let neg_kind = RelationKind::between(src.node_type, neg_enc.node_type).unwrap_or(kind);
            let d_neg = self.score_distance(ctx, &src, &neg_enc, neg_kind);
            let sim_neg =
                mops::fermi_dirac(&mut ctx.tape, d_neg, lc.fermi_radius, lc.fermi_temperature);
            reg_terms.push(self.origin_regulariser(ctx, &neg_enc));
            // hinge: [margin + sim(neg) − sim(pos)]₊  (we want sim(pos) to
            // exceed sim(neg) by the margin).
            let diff = ctx.tape.sub(sim_neg, sim_pos);
            let shifted = ctx.tape.add_const(diff, lc.margin);
            triplet_terms.push(ctx.tape.relu(shifted));
        }
        let triplets = ctx.tape.concat_cols(&triplet_terms);
        let triplet_loss = ctx.tape.mean(triplets);

        let regs = ctx.tape.concat_cols(&reg_terms);
        let reg_sum = ctx.tape.sum(regs);
        let reg_scaled = ctx.tape.scale(reg_sum, lc.origin_reg_weight);

        ctx.tape.add(triplet_loss, reg_scaled)
    }

    /// Run one optimisation step over a batch of training samples.
    pub fn train_step(
        &mut self,
        graph: &HeteroGraph,
        samples: &[TrainSample],
        step_seed: u64,
    ) -> StepStats {
        assert!(!samples.is_empty(), "empty training batch");
        let mut ctx = self.begin_batch(step_seed);
        let mut losses = Vec::with_capacity(samples.len());
        for sample in samples {
            losses.push(self.sample_loss(&mut ctx, graph, sample));
        }
        let all = ctx.tape.concat_cols(&losses);
        let loss = ctx.tape.mean(all);
        let loss_value = ctx.tape.value(loss).scalar_value();
        let grads = ctx.tape.backward(loss);
        let grad_norm = self.store.apply_gradients(&grads, &ctx.batch);
        self.clamp_curvatures();
        StepStats {
            loss: loss_value,
            grad_norm,
            samples: samples.len(),
        }
    }

    /// Keep curvatures inside the admissible range of their configured
    /// space kind (relevant only when a restricted kind is made trainable).
    fn clamp_curvatures(&mut self) {
        for (m, sub) in self.config.subspaces.clone().iter().enumerate() {
            if !sub.kind.trainable() {
                continue;
            }
            for t in NodeType::ALL {
                let id = self.node_kappas[&(m, t.index())];
                let v = self.store.scalar_value(id);
                self.store
                    .set_scalar_value(id, sub.kind.clamp(v.clamp(-5.0, 5.0)));
            }
            for r in RelationKind::ALL {
                let id = self.edge_kappas[&(m, r.index())];
                let v = self.store.scalar_value(id);
                self.store
                    .set_scalar_value(id, sub.kind.clamp(v.clamp(-5.0, 5.0)));
            }
            let id = self.shared_edge_kappas[m];
            let v = self.store.scalar_value(id);
            self.store
                .set_scalar_value(id, sub.kind.clamp(v.clamp(-5.0, 5.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcad_graph::{MetaPathSampler, SamplerConfig};
    use amcad_manifold::SpaceKind;

    fn tiny_dataset() -> amcad_datagen::Dataset {
        amcad_datagen::Dataset::generate(&amcad_datagen::WorldConfig::tiny(11))
    }

    /// Forward-only mixed-curvature distance between two nodes, through
    /// the scorer the training loss uses.
    fn pair_distance(
        model: &mut AmcadModel,
        graph: &HeteroGraph,
        a: NodeId,
        b: NodeId,
        seed: u64,
    ) -> f64 {
        let mut ctx = model.begin_batch(seed);
        let ea = model.encode_node(&mut ctx, graph, a);
        let eb = model.encode_node(&mut ctx, graph, b);
        let kind =
            RelationKind::between(ea.node_type, eb.node_type).unwrap_or(RelationKind::QueryItem);
        let d = model.score_distance(&mut ctx, &ea, &eb, kind);
        ctx.tape.value(d).scalar_value()
    }

    #[test]
    fn model_registers_parameters_for_every_component() {
        let d = tiny_dataset();
        let model = AmcadModel::new(AmcadConfig::test_tiny(1), &d.graph);
        assert!(model.num_parameters() > 0);
        // two subspaces × three node types of curvature parameters
        assert_eq!(model.config().num_subspaces(), 2);
        for m in 0..2 {
            for t in NodeType::ALL {
                let k = model.node_kappa(m, t);
                assert!(k.is_finite());
            }
            for r in RelationKind::ALL {
                assert!(model.edge_kappa(m, r).is_finite());
            }
        }
    }

    #[test]
    fn encoding_produces_finite_points_of_the_right_shape() {
        let d = tiny_dataset();
        let mut model = AmcadModel::new(AmcadConfig::test_tiny(2), &d.graph);
        let mut ctx = model.begin_batch(0);
        let node = d.query_nodes[0];
        let enc = model.encode_node(&mut ctx, &d.graph, node);
        assert_eq!(enc.subspaces.len(), 2);
        assert_eq!(enc.node_type, NodeType::Query);
        for &p in &enc.subspaces {
            let v = ctx.tape.value(p);
            assert_eq!(v.cols, model.config().subspace_dim());
            assert!(v.data.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn distances_are_positive_and_symmetric_without_neighbour_sampling() {
        // With gcn_layers = 0 the encoder is deterministic (no neighbour
        // sampling), so the scorer's symmetry can be checked exactly.
        let d = tiny_dataset();
        let mut cfg = AmcadConfig::test_tiny(3);
        cfg.gcn_layers = 0;
        let mut model = AmcadModel::new(cfg, &d.graph);
        let q = d.query_nodes[0];
        let i = d.item_nodes[0];
        let d_qi = pair_distance(&mut model, &d.graph, q, i, 7);
        let d_iq = pair_distance(&mut model, &d.graph, i, q, 7);
        assert!(d_qi > 0.0);
        assert!((d_qi - d_iq).abs() < 1e-9, "{d_qi} vs {d_iq}");
        // self-distance is bounded by the norm guard epsilon (≈ 1e-6 per
        // subspace), not exactly zero.
        assert!((pair_distance(&mut model, &d.graph, q, q, 7)).abs() < 1e-4);
    }

    #[test]
    fn training_reduces_loss_on_a_small_batch() {
        let d = tiny_dataset();
        let mut model = AmcadModel::new(AmcadConfig::test_tiny(4), &d.graph);
        let sampler = MetaPathSampler::new(
            &d.graph,
            SamplerConfig {
                negatives_per_positive: 3,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let samples = sampler.sample_batch(8, &mut rng);
        assert!(!samples.is_empty());
        let first = model.train_step(&d.graph, &samples, 0);
        let mut last = first;
        // enough steps that AdaGrad settles regardless of which batch the
        // seed draws (early steps can overshoot on hard batches)
        for step in 1..60 {
            last = model.train_step(&d.graph, &samples, step);
        }
        assert!(
            last.loss < first.loss,
            "loss should decrease when overfitting one batch: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.grad_norm.is_finite());
    }

    #[test]
    fn adaptive_curvatures_move_during_training_and_fixed_ones_do_not() {
        let d = tiny_dataset();
        // adaptive model
        let mut adaptive = AmcadModel::new(AmcadConfig::test_tiny(6), &d.graph);
        let before: Vec<f64> = (0..2)
            .flat_map(|m| NodeType::ALL.map(|t| adaptive.node_kappa(m, t)))
            .collect();
        let sampler = MetaPathSampler::new(&d.graph, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let samples = sampler.sample_batch(8, &mut rng);
        for step in 0..10 {
            adaptive.train_step(&d.graph, &samples, step);
        }
        let after: Vec<f64> = (0..2)
            .flat_map(|m| NodeType::ALL.map(|t| adaptive.node_kappa(m, t)))
            .collect();
        assert!(
            before.iter().zip(&after).any(|(b, a)| (b - a).abs() > 1e-9),
            "at least one adaptive curvature should have moved"
        );

        // fixed Euclidean model: curvature pinned at exactly zero
        let mut fixed = AmcadModel::new(AmcadConfig::euclidean(4, 6), &d.graph);
        for step in 0..5 {
            fixed.train_step(&d.graph, &samples, step);
        }
        assert_eq!(fixed.node_kappa(0, NodeType::Query), 0.0);
    }

    #[test]
    fn ablation_configs_run_end_to_end() {
        let d = tiny_dataset();
        let sampler = MetaPathSampler::new(&d.graph, SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let samples = sampler.sample_batch(4, &mut rng);
        for cfg in [
            AmcadConfig::without_fusion(4, 1),
            AmcadConfig::without_projection(4, 1),
            AmcadConfig::without_combination(4, 1),
            AmcadConfig::product_space(&[SpaceKind::Hyperbolic, SpaceKind::Spherical], 4, 1),
            AmcadConfig::hyperml_like(4, 1),
        ] {
            let mut model = AmcadModel::new(cfg.clone(), &d.graph);
            let stats = model.train_step(&d.graph, &samples, 0);
            assert!(
                stats.loss.is_finite(),
                "loss must be finite for {}",
                cfg.name
            );
        }
    }
}
