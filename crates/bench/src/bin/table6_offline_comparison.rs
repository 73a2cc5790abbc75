//! Table VI — main offline comparison.
//!
//! Trains the Euclidean walk-based baselines (DeepWalk, LINE, Node2Vec,
//! Metapath2Vec), the constant-curvature family (AMCAD_E/H/S/U plus the
//! HyperML-like substitute; the HGCN-like substitute *is* AMCAD_H, a
//! single hyperbolic GCN, so the two share one row), the mixed-curvature
//! family (GIL-like, M2GNN-like, best product space) and full AMCAD on the
//! same synthetic "1 day" graph, then reports Next AUC, training time and
//! HitRate/nDCG@K for Q2I and Q2A.
//!
//! Scale is controlled with `AMCAD_SCALE` (tiny | small | day).

use amcad_bench::{metric_header, metric_row, train_and_eval_amcad, train_and_eval_sgns, Scale};
use amcad_datagen::Dataset;
use amcad_eval::TextTable;
use amcad_manifold::SpaceKind;
use amcad_model::{AmcadConfig, SgnsConfig, WalkStrategy};

fn main() {
    let scale = Scale::from_env();
    let seed = 20220314;
    println!(
        "== Table VI: offline comparison (scale = {}) ==\n",
        scale.label()
    );

    let dataset = Dataset::generate(&scale.world(seed));
    let stats = dataset.graph.stats();
    println!(
        "graph: {} queries, {} items, {} ads, {} edges\n",
        stats.queries,
        stats.items,
        stats.ads,
        stats.total_edges()
    );
    let trainer = scale.trainer(seed);
    let eval = scale.eval(seed);
    let fd = scale.feature_dim();
    let sgns = SgnsConfig {
        dim: 4 * fd,
        ..Default::default()
    };

    let mut table = TextTable::new(metric_header());
    let mut push = |name: &str, group: &str, m: &amcad_core::OfflineMetrics, secs: f64| {
        let mut row = vec![format!("[{group}] {name}")];
        row.extend(metric_row(m, secs));
        table.row(row);
    };

    // --- E: Euclidean walk-based baselines + AMCAD_E ------------------------
    for strategy in [
        WalkStrategy::default_deepwalk(),
        WalkStrategy::LineFirst,
        WalkStrategy::LineSecond,
        WalkStrategy::default_node2vec(),
        WalkStrategy::default_metapath2vec(),
    ] {
        let r = train_and_eval_sgns(strategy, &dataset, &sgns, &eval);
        push(&r.name, "E", &r.metrics, r.train_seconds);
        eprintln!("done: {}", r.name);
    }
    {
        let r = train_and_eval_amcad(AmcadConfig::euclidean(fd, seed), &dataset, trainer, &eval);
        push(&r.name, "E", &r.metrics, r.train_seconds);
        eprintln!("done: {}", r.name);
    }

    // --- C: constant-curvature models ---------------------------------------
    let hyperbolic_gcn = AmcadConfig {
        name: "AMCAD_H / HGCN".into(),
        ..AmcadConfig::hyperbolic(fd, seed)
    };
    for cfg in [
        AmcadConfig::hyperml_like(fd, seed),
        hyperbolic_gcn,
        AmcadConfig::spherical(fd, seed),
        AmcadConfig::unified_single(fd, seed),
    ] {
        let r = train_and_eval_amcad(cfg, &dataset, trainer, &eval);
        push(&r.name, "C", &r.metrics, r.train_seconds);
        eprintln!("done: {}", r.name);
    }

    // --- M: mixed-curvature models -------------------------------------------
    for cfg in [
        AmcadConfig::gil_like(fd, seed),
        AmcadConfig::product_space(&[SpaceKind::Spherical, SpaceKind::Spherical], fd, seed),
        AmcadConfig::m2gnn_like(fd, seed),
        AmcadConfig::amcad(fd, seed),
    ] {
        let r = train_and_eval_amcad(cfg, &dataset, trainer, &eval);
        push(&r.name, "M", &r.metrics, r.train_seconds);
        eprintln!("done: {}", r.name);
    }

    println!("{}", table.render());
    println!("Shape to check against the paper's Table VI:");
    println!("  1. walk-based Euclidean baselines < AMCAD_E < constant-curvature < mixed-curvature < AMCAD;");
    println!("  2. curved training time exceeds Euclidean training time (≈ +40% in the paper);");
    println!("  3. AMCAD is best or tied-best on every metric column.");
}
