//! # amcad-bench
//!
//! Benchmark harness for the AMCAD reproduction: one experiment binary per
//! table / figure of the paper's evaluation section.
//!
//! Every experiment binary accepts the `AMCAD_SCALE` environment variable:
//!
//! * `tiny`  — seconds per model; the default so the whole suite can be
//!   regenerated quickly (this is the scale recorded in EXPERIMENTS.md),
//! * `small` — a few minutes per model, larger graphs,
//! * `day`   — the "1 day" window preset (closest to the paper's setup this
//!   repository can reach on one machine).
//!
//! Absolute numbers differ from the paper (the substrate is a synthetic
//! world, not Taobao), but the *shape* of each table/figure — which method
//! wins, by roughly what factor, where the trends bend — is what the
//! binaries reproduce.
//!
//! Serving latency is measured by the one open-loop load driver
//! ([`run_phase`], [`sustained_ladder`]): a client of the serving
//! runtime that offers requests on a fixed-rate schedule and reports a
//! [`LoadReport`] per phase.

use std::time::Instant;

pub mod gate;
pub mod json;
mod open_loop;

pub use open_loop::{round_robin, run_phase, sustained_ladder, zipf, LoadReport};

use amcad_core::{evaluate_offline, EvalConfig, OfflineMetrics};
use amcad_datagen::{Dataset, WorldConfig};
use amcad_model::{
    AmcadConfig, AmcadModel, ModelExport, PairScorer, SgnsConfig, SgnsModel, Trainer,
    TrainerConfig, WalkStrategy,
};

/// Experiment scale selected through the `AMCAD_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per model (default).
    Tiny,
    /// Minutes per model.
    Small,
    /// The "1 day" preset.
    Day,
}

impl Scale {
    /// Read the scale from the environment (`AMCAD_SCALE`), defaulting to
    /// [`Scale::Tiny`].
    pub fn from_env() -> Scale {
        match std::env::var("AMCAD_SCALE").unwrap_or_default().as_str() {
            "small" => Scale::Small,
            "day" | "full" => Scale::Day,
            _ => Scale::Tiny,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Day => "day",
        }
    }

    /// World configuration for this scale.
    pub fn world(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Tiny => {
                let mut w = WorldConfig::tiny(seed);
                // slightly richer than the unit-test world so rankings have
                // room to differ between methods
                w.num_categories = 6;
                w.queries_per_category = 16;
                w.items_per_category = 24;
                w.ads_per_category = 8;
                w.train_sessions = 2_500;
                w.eval_sessions = 900;
                w
            }
            Scale::Small => {
                let mut w = WorldConfig::one_day(seed);
                w.num_categories = 8;
                w.queries_per_category = 24;
                w.items_per_category = 48;
                w.ads_per_category = 24;
                w.train_sessions = 6_000;
                w.eval_sessions = 2_000;
                w
            }
            Scale::Day => WorldConfig::one_day(seed),
        }
    }

    /// Trainer configuration for this scale.
    pub fn trainer(self, seed: u64) -> TrainerConfig {
        match self {
            Scale::Tiny => TrainerConfig {
                batch_size: 16,
                steps: 120,
                seed,
            },
            Scale::Small => TrainerConfig {
                batch_size: 32,
                steps: 300,
                seed,
            },
            Scale::Day => TrainerConfig {
                batch_size: 64,
                steps: 600,
                seed,
            },
        }
    }

    /// Per-feature embedding dimension for this scale.
    pub fn feature_dim(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Small => 8,
            Scale::Day => 12,
        }
    }

    /// Offline-evaluation configuration for this scale.
    pub fn eval(self, seed: u64) -> EvalConfig {
        match self {
            Scale::Tiny => EvalConfig {
                max_queries: 60,
                auc_negatives: 4,
                seed,
            },
            Scale::Small => EvalConfig {
                max_queries: 100,
                auc_negatives: 4,
                seed,
            },
            Scale::Day => EvalConfig::default(),
        }
    }
}

/// The result of training and evaluating one model configuration.
pub struct EvaluatedModel {
    /// Display name (model preset name or baseline name).
    pub name: String,
    /// Offline metrics.
    pub metrics: OfflineMetrics,
    /// Training wall-clock time in seconds.
    pub train_seconds: f64,
    /// The export (only for AMCAD-family models; baselines return `None`).
    pub export: Option<ModelExport>,
}

/// Train an AMCAD-family configuration and evaluate it offline.
pub fn train_and_eval_amcad(
    config: AmcadConfig,
    dataset: &Dataset,
    trainer_cfg: TrainerConfig,
    eval_cfg: &EvalConfig,
) -> EvaluatedModel {
    let name = config.name.clone();
    let mut model = AmcadModel::new(config, &dataset.graph);
    let trainer = Trainer::new(trainer_cfg);
    let start = Instant::now();
    let _report = trainer.run(&mut model, &dataset.graph);
    let train_seconds = start.elapsed().as_secs_f64();
    let export = model.export(&dataset.graph, trainer_cfg.seed);
    let metrics = evaluate_offline(&export, dataset, eval_cfg);
    EvaluatedModel {
        name,
        metrics,
        train_seconds,
        export: Some(export),
    }
}

/// Train a walk-based baseline and evaluate it offline.
pub fn train_and_eval_sgns(
    strategy: WalkStrategy,
    dataset: &Dataset,
    sgns_cfg: &SgnsConfig,
    eval_cfg: &EvalConfig,
) -> EvaluatedModel {
    let start = Instant::now();
    let model = SgnsModel::train(&dataset.graph, &strategy, sgns_cfg);
    let train_seconds = start.elapsed().as_secs_f64();
    let metrics = evaluate_offline(&model, dataset, eval_cfg);
    EvaluatedModel {
        name: model.scorer_name().to_string(),
        metrics,
        train_seconds,
        export: None,
    }
}

/// Format one Table VI-style row of metrics (without the model-name cell).
pub fn metric_row(m: &OfflineMetrics, train_seconds: f64) -> Vec<String> {
    let f = |v: f64| format!("{v:.3}");
    vec![
        format!("{:.3}", m.next_auc),
        format!("{train_seconds:.1}"),
        f(m.q2i.hitrate[0]),
        f(m.q2i.hitrate[1]),
        f(m.q2i.hitrate[2]),
        f(m.q2i.ndcg[0]),
        f(m.q2i.ndcg[1]),
        f(m.q2i.ndcg[2]),
        f(m.q2a.hitrate[0]),
        f(m.q2a.hitrate[1]),
        f(m.q2a.hitrate[2]),
        f(m.q2a.ndcg[0]),
        f(m.q2a.ndcg[1]),
        f(m.q2a.ndcg[2]),
    ]
}

/// Header matching [`metric_row`] (with the leading model-name column).
pub fn metric_header() -> Vec<String> {
    vec![
        "Model".into(),
        "NextAUC".into(),
        "Train(s)".into(),
        "Q2I HR@10".into(),
        "HR@100".into(),
        "HR@300".into(),
        "nDCG@10".into(),
        "nDCG@100".into(),
        "nDCG@300".into(),
        "Q2A HR@10".into(),
        "HR@100".into(),
        "HR@300".into(),
        "nDCG@10".into(),
        "nDCG@100".into(),
        "nDCG@300".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets_are_ordered() {
        assert_eq!(Scale::Tiny.label(), "tiny");
        assert!(Scale::Small.world(1).train_sessions > Scale::Tiny.world(1).train_sessions);
        assert!(Scale::Day.trainer(1).steps > Scale::Tiny.trainer(1).steps);
        assert!(Scale::Day.feature_dim() >= Scale::Tiny.feature_dim());
    }

    #[test]
    fn metric_row_and_header_have_consistent_width() {
        let row = metric_row(&OfflineMetrics::default(), 1.0);
        // the header's first column is the model name, which metric_row does
        // not include
        assert_eq!(row.len() + 1, metric_header().len());
    }
}
