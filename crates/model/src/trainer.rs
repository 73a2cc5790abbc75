//! Training loop and statistics.
//!
//! The production system trains the model once per day on a window of logs,
//! warm-starting from the previous day's parameters (Section V-C).
//! [`Trainer`] reproduces the batch loop; day-over-day training is
//! [`Trainer::run`] on each day's graph in turn with the same model.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use amcad_graph::{HeteroGraph, MetaPathSampler, SamplerConfig};

use crate::model::AmcadModel;

/// Configuration of the training loop.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Samples per optimisation step.
    pub batch_size: usize,
    /// Number of optimisation steps.
    pub steps: usize,
    /// RNG seed for walk / negative sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            batch_size: 32,
            steps: 200,
            seed: 17,
        }
    }
}

impl TrainerConfig {
    /// A very small configuration for unit tests.
    pub fn test_tiny(seed: u64) -> Self {
        TrainerConfig {
            batch_size: 8,
            steps: 12,
            seed,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss of each step, in order.
    pub losses: Vec<f64>,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Total number of (src, pos, negs) samples consumed.
    pub samples_seen: usize,
}

/// Drives minibatch training of an [`AmcadModel`] over a graph.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    /// Loop configuration.
    pub config: TrainerConfig,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// Train the model on one graph for `config.steps` steps.
    pub fn run(&self, model: &mut AmcadModel, graph: &HeteroGraph) -> TrainReport {
        let sampler_cfg = SamplerConfig {
            negatives_per_positive: model.config().negatives_per_positive,
            hard_fraction: model.config().hard_negative_fraction,
            same_category_positives: true,
        };
        let sampler = MetaPathSampler::new(graph, sampler_cfg);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut losses = Vec::with_capacity(self.config.steps);
        let mut samples_seen = 0usize;
        let start = Instant::now();
        for step in 0..self.config.steps {
            let batch = sampler.sample_batch(self.config.batch_size, &mut rng);
            if batch.is_empty() {
                continue;
            }
            samples_seen += batch.len();
            let stats = model.train_step(graph, &batch, self.config.seed.wrapping_add(step as u64));
            losses.push(stats.loss);
        }
        TrainReport {
            losses,
            wall_time: start.elapsed(),
            samples_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmcadConfig;
    use amcad_datagen::{Dataset, WorldConfig};

    #[test]
    fn training_loop_runs_and_reports_statistics() {
        // Generalisation across fresh minibatches needs more steps than a
        // debug-mode unit test can afford; loss *decrease* is covered by the
        // fixed-batch overfitting test in `model::tests` and by the
        // integration tests.  Here we exercise the loop mechanics.
        let d = Dataset::generate(&WorldConfig::tiny(31));
        let mut model = AmcadModel::new(AmcadConfig::test_tiny(31), &d.graph);
        let trainer = Trainer::new(TrainerConfig {
            batch_size: 8,
            steps: 20,
            seed: 31,
        });
        let report = trainer.run(&mut model, &d.graph);
        assert_eq!(report.losses.len(), 20);
        assert!(report.samples_seen >= 20 * 4);
        assert!(report.wall_time > Duration::ZERO);
        assert!(report.losses.iter().all(|l| l.is_finite() && *l >= 0.0));
    }

    #[test]
    fn incremental_training_continues_from_previous_day() {
        let day1 = Dataset::generate(&WorldConfig::tiny(32));
        let day2 = Dataset::generate(&WorldConfig::tiny(33));
        let mut model = AmcadModel::new(AmcadConfig::test_tiny(32), &day1.graph);
        let trainer = Trainer::new(TrainerConfig::test_tiny(32));
        trainer.run(&mut model, &day1.graph);
        // day-2 training starts from the model day 1 left behind
        let day2_report = trainer.run(&mut model, &day2.graph);
        assert!(day2_report.losses.iter().all(|l| l.is_finite()));
    }
}
