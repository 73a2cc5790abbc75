//! The end-to-end AMCAD pipeline (Fig. 3 of the paper).
//!
//! One call runs the full production loop at laptop scale: behaviour-log
//! generation → heterogeneous graph construction → adaptive mixed-curvature
//! training → embedding export → MNN index construction → two-layer online
//! retrieval → offline metrics — the same flow the paper deploys across
//! ODPS, Euler, XDL, MNN workers and iGraph.

use std::sync::Arc;

use amcad_datagen::{Dataset, WorldConfig};
use amcad_eval::{AbMetrics, AbTestSimulator, ClickModelConfig, ServedAd};
use amcad_graph::{NodeId, NodeType};
use amcad_mnn::MixedPointSet;
use amcad_model::{
    AmcadConfig, AmcadModel, ModelExport, RelationKind, TrainReport, Trainer, TrainerConfig,
};
use amcad_retrieval::{
    IndexBuildConfig, IndexBuildInputs, Request, RetrievalConfig, RetrievalEngine,
};

use crate::evaluation::{evaluate_offline, EvalConfig, OfflineMetrics};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic-world / behaviour-log configuration.
    pub world: WorldConfig,
    /// Model configuration (AMCAD or any variant).
    pub model: AmcadConfig,
    /// Training-loop configuration.
    pub trainer: TrainerConfig,
    /// MNN index-construction configuration.
    pub index: IndexBuildConfig,
    /// Two-layer retrieval configuration.
    pub retrieval: RetrievalConfig,
    /// Offline-evaluation configuration.
    pub eval: EvalConfig,
}

impl PipelineConfig {
    /// A small-but-complete preset used by examples and integration tests.
    pub fn small(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::tiny(seed),
            model: AmcadConfig::test_tiny(seed),
            trainer: TrainerConfig {
                batch_size: 16,
                steps: 60,
                seed,
            },
            index: IndexBuildConfig {
                top_k: 10,
                threads: 2,
                ..Default::default()
            },
            retrieval: RetrievalConfig::default(),
            eval: EvalConfig {
                max_queries: 30,
                auc_negatives: 3,
                seed,
            },
        }
    }

    /// The offline-experiment preset (paper's "1 day" window at laptop
    /// scale) — used by the Table VI/VII/VIII experiment binaries.
    pub fn one_day(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::one_day(seed),
            model: AmcadConfig::amcad(8, seed),
            trainer: TrainerConfig {
                batch_size: 64,
                steps: 400,
                seed,
            },
            index: IndexBuildConfig {
                top_k: 20,
                threads: 4,
                ..Default::default()
            },
            retrieval: RetrievalConfig::default(),
            eval: EvalConfig::default(),
        }
    }
}

/// Everything the pipeline produced.
pub struct PipelineResult {
    /// The generated dataset (world, graph, sessions, ground truth).
    pub dataset: Dataset,
    /// The trained model.
    pub model: AmcadModel,
    /// The exported embeddings and attention weights.
    pub export: ModelExport,
    /// The retrieval engine over the built indices.
    pub engine: RetrievalEngine,
    /// The training report.
    pub train_report: TrainReport,
    /// Offline metrics of the trained model.
    pub offline: OfflineMetrics,
}

/// The end-to-end pipeline runner.
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run the complete pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configured world produces no ads at all
    /// (`WorldConfig::ads_per_category == 0`): an ad-retrieval engine over
    /// empty ad indices is rejected at build time ([`RetrievalEngine`]
    /// returns `EmptyIndex`), and this one-call entry point treats that as
    /// a configuration error. Ad-free experiments should drive the model /
    /// evaluation layers directly instead of the serving pipeline.
    pub fn run(&self) -> PipelineResult {
        let dataset = Dataset::generate(&self.config.world);
        let mut model = AmcadModel::new(self.config.model.clone(), &dataset.graph);
        let trainer = Trainer::new(self.config.trainer);
        let train_report = trainer.run(&mut model, &dataset.graph);
        let export = model.export(&dataset.graph, self.config.trainer.seed);
        let offline = evaluate_offline(&export, &dataset, &self.config.eval);
        let inputs = build_index_inputs(&export, &dataset);
        let engine = RetrievalEngine::builder()
            .index(self.config.index)
            .retrieval(self.config.retrieval)
            .build(&inputs)
            .unwrap_or_else(|e| panic!("engine build failed: {e}"));
        PipelineResult {
            dataset,
            model,
            export,
            engine,
            train_report,
            offline,
        }
    }
}

/// Assemble the MNN index-construction inputs from a model export: every
/// node's projected point and attention weights in each edge space it
/// participates in.
pub fn build_index_inputs(export: &ModelExport, dataset: &Dataset) -> IndexBuildInputs {
    let collect = |kind: RelationKind, nodes: &[NodeId]| -> MixedPointSet {
        let space = &export.spaces[&kind];
        let mut set = MixedPointSet::new(space.manifold.clone());
        for &node in nodes {
            if let (Some(point), Some(weight)) = (space.points.get(&node), space.weights.get(&node))
            {
                set.push(node.0, point, weight);
            }
        }
        set
    };
    // key-side sets are shared (replicated per shard / per delta
    // generation as Arc bumps); ad-side sets are the partitioned, mutable
    // half of the lifecycle and stay plain
    IndexBuildInputs {
        queries_qq: Arc::new(collect(RelationKind::QueryQuery, &dataset.query_nodes)),
        queries_qi: Arc::new(collect(RelationKind::QueryItem, &dataset.query_nodes)),
        items_qi: Arc::new(collect(RelationKind::QueryItem, &dataset.item_nodes)),
        queries_qa: Arc::new(collect(RelationKind::QueryAd, &dataset.query_nodes)),
        ads_qa: collect(RelationKind::QueryAd, &dataset.ad_nodes),
        items_ii: Arc::new(collect(RelationKind::ItemItem, &dataset.item_nodes)),
        items_ia: Arc::new(collect(RelationKind::ItemAd, &dataset.item_nodes)),
        ads_ia: collect(RelationKind::ItemAd, &dataset.ad_nodes),
    }
}

/// Outcome of a simulated online A/B test between two retrieval channels.
#[derive(Debug, Clone)]
pub struct AbTestOutcome {
    /// Metrics of the control channel.
    pub control: AbMetrics,
    /// Metrics of the treatment channel.
    pub treatment: AbMetrics,
    /// Number of requests simulated.
    pub requests: usize,
}

/// Simulate an online A/B test (Table X): for every next-day session the
/// control and treatment retrievers each serve an ad list; the click model
/// turns relevance into clicks and bid prices into revenue.
pub fn run_ab_test(
    dataset: &Dataset,
    control: &RetrievalEngine,
    treatment: &RetrievalEngine,
    click_model: ClickModelConfig,
) -> AbTestOutcome {
    let to_served = |engine: &RetrievalEngine, query: NodeId, preclicks: &[NodeId]| {
        let request = Request {
            query: query.0,
            preclick_items: preclicks.iter().map(|n| n.0).collect(),
        };
        // an uncovered request simply serves no ads in the A/B comparison
        engine
            .retrieve(&request)
            .map(|response| response.ads)
            .unwrap_or_default()
            .into_iter()
            .map(|ad| {
                let ad_node = NodeId(ad.ad);
                ServedAd {
                    relevance: dataset.relevance(query, ad_node),
                    bid_price: dataset.bid_price(ad_node),
                }
            })
            .collect::<Vec<ServedAd>>()
    };

    let mut control_lists = Vec::new();
    let mut treatment_lists = Vec::new();
    for session in &dataset.eval_sessions {
        // Only item clicks are available as pre-click context at request
        // time (the ad list is what we are about to serve).
        let preclicks: Vec<NodeId> = session
            .clicks
            .iter()
            .copied()
            .filter(|c| dataset.graph.node_type(*c) == NodeType::Item)
            .collect();
        control_lists.push(to_served(control, session.query, &preclicks));
        treatment_lists.push(to_served(treatment, session.query, &preclicks));
    }
    let simulator = AbTestSimulator::new(click_model);
    let requests: Vec<(&[ServedAd], &[ServedAd])> = control_lists
        .iter()
        .zip(&treatment_lists)
        .map(|(c, t)| (c.as_slice(), t.as_slice()))
        .collect();
    let n = requests.len();
    let (control_metrics, treatment_metrics) = simulator.run(requests);
    AbTestOutcome {
        control: control_metrics,
        treatment: treatment_metrics,
        requests: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_end_to_end_and_serves_ads() {
        let pipeline = Pipeline::new(PipelineConfig::small(61));
        let result = pipeline.run();
        assert!(!result.train_report.losses.is_empty());
        assert!(result.offline.next_auc > 0.0);
        // the retriever serves ads for an arbitrary evaluation session
        let session = &result.dataset.eval_sessions[0];
        let pre: Vec<u32> = result
            .dataset
            .preclick_items(session)
            .iter()
            .map(|n| n.0)
            .collect();
        let response = result
            .engine
            .retrieve(&Request {
                query: session.query.0,
                preclick_items: pre,
            })
            .expect("the two-layer engine should find ads");
        let ads = response.ads;
        assert!(!ads.is_empty());
        for ad in &ads {
            assert_eq!(
                result.dataset.graph.node_type(NodeId(ad.ad)),
                NodeType::Ad,
                "retrieved ids must be ads"
            );
        }
    }

    #[test]
    fn pipeline_runs_end_to_end_with_the_ivf_backend() {
        use amcad_mnn::{IndexBackend, IvfConfig};
        let mut config = PipelineConfig::small(64);
        config.index.backend = IndexBackend::Ivf(IvfConfig::default());
        let result = Pipeline::new(config).run();
        assert_eq!(result.engine.backend().label(), "ivf");
        let mut served = 0;
        for session in result.dataset.eval_sessions.iter().take(20) {
            let pre: Vec<u32> = result
                .dataset
                .preclick_items(session)
                .iter()
                .map(|n| n.0)
                .collect();
            if let Ok(response) = result.engine.retrieve(&Request {
                query: session.query.0,
                preclick_items: pre,
            }) {
                served += response.ads.len().min(1);
            }
        }
        assert!(
            served > 10,
            "the IVF-backed pipeline must serve most sessions, got {served}"
        );
    }

    #[test]
    fn index_inputs_cover_all_nodes_of_each_space() {
        let pipeline = Pipeline::new(PipelineConfig::small(62));
        let result = pipeline.run();
        let inputs = build_index_inputs(&result.export, &result.dataset);
        assert_eq!(inputs.queries_qq.len(), result.dataset.query_nodes.len());
        assert_eq!(inputs.items_qi.len(), result.dataset.item_nodes.len());
        assert_eq!(inputs.ads_qa.len(), result.dataset.ad_nodes.len());
        assert_eq!(inputs.ads_ia.len(), result.dataset.ad_nodes.len());
    }

    #[test]
    fn ab_test_between_identical_channels_reports_traffic() {
        let pipeline = Pipeline::new(PipelineConfig::small(63));
        let result = pipeline.run();
        let outcome = run_ab_test(
            &result.dataset,
            &result.engine,
            &result.engine,
            ClickModelConfig {
                seed: 63,
                ..Default::default()
            },
        );
        assert_eq!(outcome.requests, result.dataset.eval_sessions.len());
        assert!(outcome.control.impressions.iter().sum::<u64>() > 0);
        assert!(outcome.treatment.impressions.iter().sum::<u64>() > 0);
    }
}
