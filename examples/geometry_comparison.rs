//! Compare embedding geometries on the same interaction graph.
//!
//! This is the scenario the paper's introduction motivates: the
//! query–item–ad graph mixes a query hierarchy with cyclic co-click/co-bid
//! product clusters, so a single flat (or single curved) space distorts one
//! of the structures.  The example trains the Euclidean, hyperbolic,
//! spherical and adaptive mixed-curvature variants of the same architecture
//! and prints their offline metrics side by side.
//!
//! ```bash
//! cargo run --release --example geometry_comparison
//! ```

use amcad::core::{build_index_inputs, evaluate_offline, EvalConfig};
use amcad::datagen::{Dataset, WorldConfig};
use amcad::eval::TextTable;
use amcad::model::{AmcadConfig, AmcadModel, Trainer, TrainerConfig};
use amcad::retrieval::{Request, RetrievalEngine};

fn main() {
    let seed = 7;
    let dataset = Dataset::generate(&WorldConfig::tiny(seed));
    let trainer_cfg = TrainerConfig {
        batch_size: 16,
        steps: 80,
        seed,
    };
    let eval_cfg = EvalConfig {
        max_queries: 40,
        auc_negatives: 4,
        seed,
    };

    let configs = vec![
        AmcadConfig::euclidean(4, seed),
        AmcadConfig::hyperbolic(4, seed),
        AmcadConfig::spherical(4, seed),
        AmcadConfig::unified_single(4, seed),
        AmcadConfig::amcad(4, seed),
    ];

    let mut table = TextTable::new(vec![
        "Geometry",
        "Next AUC",
        "Q2I HR@10",
        "Q2A HR@10",
        "Serving coverage",
        "learned kappas (query)",
    ]);
    for cfg in configs {
        let name = cfg.name.clone();
        let m_count = cfg.num_subspaces();
        let mut model = AmcadModel::new(cfg, &dataset.graph);
        Trainer::new(trainer_cfg).run(&mut model, &dataset.graph);
        let export = model.export(&dataset.graph, seed);
        let metrics = evaluate_offline(&export, &dataset, &eval_cfg);
        // end-to-end view: how much next-day traffic the geometry's
        // serving engine covers through the two-layer retrieval
        let engine = RetrievalEngine::builder()
            .top_k(10)
            .threads(2)
            .build(&build_index_inputs(&export, &dataset))
            .expect("every geometry exports non-empty ad indices");
        let covered = dataset
            .eval_sessions
            .iter()
            .filter(|s| {
                let request = Request {
                    query: s.query.0,
                    preclick_items: dataset.preclick_items(s).iter().map(|n| n.0).collect(),
                };
                engine.retrieve(&request).is_ok()
            })
            .count();
        let kappas: Vec<String> = (0..m_count)
            .map(|m| format!("{:+.3}", model.node_kappa(m, amcad::graph::NodeType::Query)))
            .collect();
        table.row(vec![
            name,
            format!("{:.2}", metrics.next_auc),
            format!("{:.2}", metrics.q2i.hitrate[0]),
            format!("{:.2}", metrics.q2a.hitrate[0]),
            format!(
                "{:.1}%",
                100.0 * covered as f64 / dataset.eval_sessions.len() as f64
            ),
            kappas.join(", "),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape (paper, Table VI): Euclidean < single curved space < adaptive mixed-curvature.");
}
