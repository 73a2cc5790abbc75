//! Trainable-parameter storage and the AdaGrad optimiser.
//!
//! The paper trains AMCAD with vanilla AdaGrad over parameters that all
//! live in tangent (Euclidean) space, stabilised by gradient clipping and a
//! learning-rate warm-up (Section V-B).  [`ParamStore`] reproduces this
//! machinery:
//!
//! * dense parameters (weight matrices, curvature scalars, attention
//!   projections),
//! * sparse embedding tables updated only on the rows touched by a batch,
//! * per-element AdaGrad accumulators, global-norm gradient clipping and
//!   linear warm-up.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

/// Handle to a dense parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseId(usize);

/// Handle to an embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(usize);

/// Hyper-parameters of the AdaGrad optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Base learning rate (the paper grid-searches to 1e-2).
    pub learning_rate: f64,
    /// AdaGrad denominator epsilon.
    pub epsilon: f64,
    /// Global gradient-norm clip threshold (0 disables clipping).
    pub clip_norm: f64,
    /// Number of warm-up steps over which the learning rate ramps linearly.
    pub warmup_steps: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            learning_rate: 1e-2,
            epsilon: 1e-10,
            clip_norm: 5.0,
            warmup_steps: 100,
        }
    }
}

#[derive(Debug, Clone)]
struct DenseParam {
    name: String,
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    accum: Vec<f64>,
    trainable: bool,
}

#[derive(Debug, Clone)]
struct EmbeddingTable {
    name: String,
    rows: usize,
    dim: usize,
    data: Vec<f64>,
    accum: Vec<f64>,
}

/// Where a tape leaf's gradient should be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    Dense(DenseId),
    Row(TableId, usize),
}

/// Records which tape leaves were bound to which parameters in one batch.
#[derive(Debug, Default)]
pub struct Batch {
    uses: Vec<(Var, Target)>,
}

impl Batch {
    /// Create an empty binding record.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Number of parameter bindings recorded.
    pub fn len(&self) -> usize {
        self.uses.len()
    }

    /// Whether no parameters were bound.
    pub fn is_empty(&self) -> bool {
        self.uses.is_empty()
    }
}

/// Container for every trainable parameter of a model.
#[derive(Debug)]
pub struct ParamStore {
    dense: Vec<DenseParam>,
    tables: Vec<EmbeddingTable>,
    config: OptimizerConfig,
    step: u64,
    rng: StdRng,
}

impl ParamStore {
    /// Create a store with the given optimiser configuration and RNG seed
    /// (parameter initialisation is deterministic given the seed).
    pub fn new(config: OptimizerConfig, seed: u64) -> Self {
        ParamStore {
            dense: Vec::new(),
            tables: Vec::new(),
            config,
            step: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The optimiser configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Total number of scalar parameters (dense + embeddings).
    pub fn num_parameters(&self) -> usize {
        self.dense.iter().map(|p| p.data.len()).sum::<usize>()
            + self.tables.iter().map(|t| t.data.len()).sum::<usize>()
    }

    // ----- registration -----

    /// Register a dense parameter of shape `rows × cols`, initialised
    /// uniformly in `[-scale, scale]`.
    pub fn dense(&mut self, name: &str, rows: usize, cols: usize, scale: f64) -> DenseId {
        assert!(
            self.dense.iter().all(|p| p.name != name),
            "duplicate dense parameter `{name}`"
        );
        let data = (0..rows * cols)
            .map(|_| self.rng.gen_range(-scale..=scale))
            .collect();
        let id = DenseId(self.dense.len());
        self.dense.push(DenseParam {
            name: name.to_string(),
            rows,
            cols,
            data,
            accum: vec![0.0; rows * cols],
            trainable: true,
        });
        id
    }

    /// Register a dense parameter with explicit initial values.
    pub fn dense_with_values(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        values: Vec<f64>,
    ) -> DenseId {
        assert_eq!(values.len(), rows * cols);
        let id = self.dense(name, rows, cols, 0.0);
        self.dense[id.0].data = values;
        id
    }

    /// Register a scalar parameter (used for trainable curvatures).
    pub fn scalar_param(&mut self, name: &str, value: f64, trainable: bool) -> DenseId {
        let id = self.dense_with_values(name, 1, 1, vec![value]);
        self.dense[id.0].trainable = trainable;
        id
    }

    /// Register an embedding table of `rows × dim`, initialised uniformly in
    /// `[-scale, scale]`.
    pub fn embedding(&mut self, name: &str, rows: usize, dim: usize, scale: f64) -> TableId {
        assert!(
            self.tables.iter().all(|t| t.name != name),
            "duplicate embedding table `{name}`"
        );
        let data = (0..rows * dim)
            .map(|_| self.rng.gen_range(-scale..=scale))
            .collect();
        let id = TableId(self.tables.len());
        self.tables.push(EmbeddingTable {
            name: name.to_string(),
            rows,
            dim,
            data,
            accum: vec![0.0; rows * dim],
        });
        id
    }

    // ----- values -----

    /// Current value of a dense parameter as a tensor copy.
    pub fn dense_value(&self, id: DenseId) -> Tensor {
        let p = &self.dense[id.0];
        Tensor::new(p.rows, p.cols, p.data.clone())
    }

    /// Current scalar value of a `1 × 1` dense parameter.
    pub fn scalar_value(&self, id: DenseId) -> f64 {
        let p = &self.dense[id.0];
        debug_assert_eq!(p.data.len(), 1);
        p.data[0]
    }

    /// Overwrite the scalar value of a `1 × 1` dense parameter.
    pub fn set_scalar_value(&mut self, id: DenseId, value: f64) {
        let p = &mut self.dense[id.0];
        debug_assert_eq!(p.data.len(), 1);
        p.data[0] = value;
    }

    /// Row `row` of an embedding table as a slice.
    pub fn row_value(&self, id: TableId, row: usize) -> &[f64] {
        let t = &self.tables[id.0];
        &t.data[row * t.dim..(row + 1) * t.dim]
    }

    // ----- binding into a tape -----

    /// Bind a dense parameter into the tape as a leaf for this batch.
    pub fn use_dense(&self, tape: &mut Tape, batch: &mut Batch, id: DenseId) -> Var {
        let var = tape.leaf(self.dense_value(id));
        batch.uses.push((var, Target::Dense(id)));
        var
    }

    /// Bind one embedding row into the tape as a leaf for this batch.
    pub fn use_row(&self, tape: &mut Tape, batch: &mut Batch, id: TableId, row: usize) -> Var {
        let t = &self.tables[id.0];
        assert!(
            row < t.rows,
            "row {row} out of bounds for table `{}`",
            t.name
        );
        let data = t.data[row * t.dim..(row + 1) * t.dim].to_vec();
        let var = tape.leaf(Tensor::row(data));
        batch.uses.push((var, Target::Row(id, row)));
        var
    }

    // ----- optimisation -----

    /// Effective learning rate after warm-up at the current step.
    pub fn effective_lr(&self) -> f64 {
        if self.config.warmup_steps == 0 {
            return self.config.learning_rate;
        }
        let ramp = ((self.step + 1) as f64 / self.config.warmup_steps as f64).min(1.0);
        self.config.learning_rate * ramp
    }

    /// Apply AdaGrad updates for one batch.  Returns the pre-clip global
    /// gradient norm (useful for monitoring training stability).
    pub fn apply_gradients(&mut self, grads: &Gradients, batch: &Batch) -> f64 {
        // 1. accumulate per-target gradients (a parameter bound several
        //    times in one batch receives the sum of its leaf gradients).
        let mut acc: HashMap<Target, Vec<f64>> = HashMap::new();
        for (var, target) in &batch.uses {
            let Some(g) = grads.wrt(*var) else { continue };
            let entry = acc
                .entry(*target)
                .or_insert_with(|| vec![0.0; g.data.len()]);
            for (e, gi) in entry.iter_mut().zip(&g.data) {
                *e += gi;
            }
        }

        // Deterministic order: the clip-norm sum is order-sensitive in
        // floating point, and HashMap order varies per process, which
        // would make seeded training runs diverge.
        let mut entries: Vec<(Target, Vec<f64>)> = acc.into_iter().collect();
        entries.sort_unstable_by_key(|(t, _)| match *t {
            Target::Dense(id) => (0, id.0, 0),
            Target::Row(id, row) => (1, id.0, row),
        });

        // 2. global norm clipping
        let total_sq: f64 = entries
            .iter()
            .map(|(_, g)| g.iter().map(|x| x * x).sum::<f64>())
            .sum();
        let global_norm = total_sq.sqrt();
        let clip_scale = if self.config.clip_norm > 0.0 && global_norm > self.config.clip_norm {
            self.config.clip_norm / global_norm
        } else {
            1.0
        };

        // 3. AdaGrad update
        let lr = self.effective_lr();
        let eps = self.config.epsilon;
        for (target, mut g) in entries {
            for gi in &mut g {
                *gi *= clip_scale;
            }
            match target {
                Target::Dense(id) => {
                    let p = &mut self.dense[id.0];
                    if !p.trainable {
                        continue;
                    }
                    debug_assert_eq!(g.len(), p.data.len(), "dense gradient shape mismatch");
                    for (i, gi) in g.iter().enumerate() {
                        p.accum[i] += gi * gi;
                        p.data[i] -= lr * gi / (p.accum[i].sqrt() + eps);
                    }
                }
                Target::Row(id, row) => {
                    let t = &mut self.tables[id.0];
                    let base = row * t.dim;
                    debug_assert_eq!(g.len(), t.dim, "row gradient shape mismatch");
                    for (i, gi) in g.iter().enumerate().take(t.dim) {
                        t.accum[base + i] += gi * gi;
                        t.data[base + i] -= lr * gi / (t.accum[base + i].sqrt() + eps);
                    }
                }
            }
        }

        self.step += 1;
        global_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        ParamStore::new(OptimizerConfig::default(), 7)
    }

    #[test]
    fn registration_and_lookup() {
        let mut s = store();
        let w = s.dense("w", 2, 3, 0.1);
        let e = s.embedding("emb", 10, 4, 0.1);
        assert_eq!(s.num_parameters(), 6 + 40);
        assert_eq!(s.dense_value(w).data.len(), 6);
        assert_eq!(s.row_value(e, 9).len(), 4);
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let mut s = store();
        s.dense("w", 2, 2, 0.1);
        s.dense("w", 2, 2, 0.1);
    }

    #[test]
    fn adagrad_descends_a_quadratic() {
        // minimise f(w) = Σ (w - 3)² over a 1x2 dense parameter
        let mut s = ParamStore::new(
            OptimizerConfig {
                learning_rate: 0.5,
                warmup_steps: 0,
                clip_norm: 0.0,
                ..Default::default()
            },
            3,
        );
        let w = s.dense_with_values("w", 1, 2, vec![0.0, 10.0]);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let mut batch = Batch::new();
            let wv = s.use_dense(&mut tape, &mut batch, w);
            let target = tape.row(vec![3.0, 3.0]);
            let diff = tape.sub(wv, target);
            let sq = tape.square(diff);
            let loss = tape.sum(sq);
            let grads = tape.backward(loss);
            s.apply_gradients(&grads, &batch);
        }
        let final_w = s.dense_value(w);
        for v in final_w.data {
            assert!((v - 3.0).abs() < 0.1, "w did not converge: {v}");
        }
    }

    #[test]
    fn sparse_embedding_rows_update_independently() {
        let mut s = ParamStore::new(
            OptimizerConfig {
                learning_rate: 0.5,
                warmup_steps: 0,
                ..Default::default()
            },
            3,
        );
        let e = s.embedding("emb", 4, 2, 0.0); // all-zero init
        let before_row3 = s.row_value(e, 3).to_vec();
        // push row 1 towards [1, 1]
        for _ in 0..200 {
            let mut tape = Tape::new();
            let mut batch = Batch::new();
            let r = s.use_row(&mut tape, &mut batch, e, 1);
            let target = tape.row(vec![1.0, 1.0]);
            let diff = tape.sub(r, target);
            let sq = tape.square(diff);
            let loss = tape.sum(sq);
            let grads = tape.backward(loss);
            s.apply_gradients(&grads, &batch);
        }
        let row1 = s.row_value(e, 1);
        assert!((row1[0] - 1.0).abs() < 0.1 && (row1[1] - 1.0).abs() < 0.1);
        assert_eq!(s.row_value(e, 3), before_row3.as_slice());
    }

    #[test]
    fn warmup_ramps_learning_rate() {
        let s = ParamStore::new(
            OptimizerConfig {
                learning_rate: 1.0,
                warmup_steps: 10,
                ..Default::default()
            },
            1,
        );
        assert!(s.effective_lr() <= 0.1 + 1e-12);
        let mut s2 = s;
        // simulate steps
        for _ in 0..20 {
            let tape = Tape::new();
            let batch = Batch::new();
            drop(tape);
            drop(batch);
            s2.step += 1;
        }
        assert!((s2.effective_lr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_clipping_bounds_update_magnitude() {
        let mut s = ParamStore::new(
            OptimizerConfig {
                learning_rate: 1.0,
                warmup_steps: 0,
                clip_norm: 1.0,
                ..Default::default()
            },
            3,
        );
        let w = s.dense_with_values("w", 1, 1, vec![0.0]);
        let mut tape = Tape::new();
        let mut batch = Batch::new();
        let wv = s.use_dense(&mut tape, &mut batch, w);
        let huge = tape.scale(wv, 1.0);
        let shifted = tape.add_const(huge, -1000.0);
        let sq = tape.square(shifted);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        let norm = s.apply_gradients(&grads, &batch);
        assert!(norm > 1.0, "raw gradient should exceed the clip threshold");
        // With AdaGrad the first step magnitude is ≈ lr regardless, but the
        // accumulated state must reflect the clipped gradient (1.0), not the
        // raw one (2000).
        assert!(s.dense[w.0].accum[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn non_trainable_scalar_is_frozen() {
        let mut s = store();
        let k = s.scalar_param("kappa", -1.0, false);
        let mut tape = Tape::new();
        let mut batch = Batch::new();
        let kv = s.use_dense(&mut tape, &mut batch, k);
        let sq = tape.square(kv);
        let loss = tape.sum(sq);
        let grads = tape.backward(loss);
        s.apply_gradients(&grads, &batch);
        assert_eq!(s.scalar_value(k), -1.0);
    }
}
