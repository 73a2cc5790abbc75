//! Fig. 9 — online ad-retrieval response time versus offered QPS.
//!
//! The paper measures the production iGraph serving layer from 1K to 50K
//! queries per second and observes that response time grows slowly (roughly
//! doubling across a ten-fold QPS increase) until the cluster nears
//! saturation.  This binary runs the same sweep against the in-process
//! retrieval engine with an open-loop load generator, once per deployment
//! shape that changes the request loop:
//!
//! * the pipeline's exact engine behind an `EngineHandle` snapshot (the
//!   production entry point);
//! * a healthy 2 shards × 2 replicas topology;
//! * the same topology behind the admission-controlled `ServingRuntime`,
//!   driven past saturation. Its asserts are behaviour checks, not
//!   timings: sub-saturation load is served without shedding, and past
//!   saturation the queue sheds while p99 stays bounded.
//!
//! The ANN backend is not one of those shapes: every backend builds
//! posting lists the request loop reads in prefixes of the same length, so
//! `table9_scalability` reports what a backend changes — build time and
//! recall. Nor is a failed-over topology: in-process replicas are health
//! flags over one shared engine, so failover changes the route, not the
//! work, and `shard::tests::killing_any_single_replica_never_changes_a_served_ranking`
//! owns what it must keep. The latency ladders report p50 / p90 / p95 /
//! p99: the saturation knee shows in the upper deciles before the median.
//!
//! Each offered-QPS level is one single run. On a shared 2-vCPU machine
//! two back-to-back tiny runs of the same binary read the engine ladder's
//! p99 at 10 k QPS as 0.112 ms and 7.30 ms, and the runtime ladder's
//! 50 k QPS rung shed 555 and 217 of 2 000 requests. So the timings in
//! `BENCH_fig9.json` record a curve's shape, not a regression signal;
//! timing comparisons belong to `benches/e2e`'s paired protocol.

use std::sync::Arc;
use std::time::Duration;

use amcad_bench::json::{write_bench_json, Json};
use amcad_bench::{run_phase, sustained_ladder, zipf, LoadReport, Scale};
use amcad_core::{build_index_inputs, Pipeline, PipelineConfig};
use amcad_eval::TextTable;
use amcad_retrieval::{EngineHandle, Request, RuntimeConfig, ServingRuntime, ShardedEngine};

fn latency_table(reports: &[LoadReport]) -> TextTable {
    // p90 / p95 sit between the median and p99 on purpose: the
    // saturation knee moves the upper deciles well before the median
    let mut table = TextTable::new(vec![
        "Offered QPS",
        "Completed",
        "Achieved QPS",
        "Mean (ms)",
        "p50 (ms)",
        "p90 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "No coverage",
    ]);
    for r in reports {
        table.row(vec![
            format!("{:.0}", r.offered_qps),
            r.completed.to_string(),
            format!("{:.0}", r.achieved_qps),
            format!("{:.3}", r.mean_ms),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p90_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            r.no_coverage.to_string(),
        ]);
    }
    table
}

fn levels_json(reports: &[LoadReport]) -> Json {
    Json::Arr(
        reports
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("offered_qps", Json::from(r.offered_qps)),
                    ("completed", Json::from(r.completed)),
                    ("achieved_qps", Json::from(r.achieved_qps)),
                    ("mean_ms", Json::from(r.mean_ms)),
                    ("p50_ms", Json::from(r.p50_ms)),
                    ("p90_ms", Json::from(r.p90_ms)),
                    ("p95_ms", Json::from(r.p95_ms)),
                    ("p99_ms", Json::from(r.p99_ms)),
                    ("no_coverage", Json::from(r.no_coverage)),
                    ("shed", Json::from(r.shed)),
                    ("timed_out", Json::from(r.timed_out)),
                    ("goodput_qps", Json::from(r.goodput_qps)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let scale = Scale::from_env();
    let seed = 20221212;
    println!(
        "== Fig. 9: serving latency vs offered QPS (scale = {}) ==\n",
        scale.label()
    );

    // Build a complete serving stack through the pipeline.
    let mut cfg = PipelineConfig::small(seed);
    cfg.world = scale.world(seed);
    cfg.trainer = scale.trainer(seed);
    cfg.model = amcad_model::AmcadConfig::amcad(scale.feature_dim(), seed);
    let index_config = cfg.index;
    let retrieval_config = cfg.retrieval;
    let result = Pipeline::new(cfg).run();
    let inputs = build_index_inputs(&result.export, &result.dataset);

    // Request templates from the evaluation sessions.
    let requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
        .take(500)
        .map(|s| Request {
            query: s.query.0,
            preclick_items: result
                .dataset
                .preclick_items(s)
                .iter()
                .map(|n| n.0)
                .collect(),
        })
        .collect();

    let qps_levels = [
        1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
    ];
    let requests_per_level = if scale == Scale::Tiny { 2_000 } else { 5_000 };

    // -- The pipeline's engine --------------------------------------------
    // serve the production way: workers hit the hot-swappable handle, each
    // request pinning the current snapshot
    println!("-- engine: {} x1", result.engine.backend().label());
    let handle = Arc::new(EngineHandle::new(result.engine.clone()));
    let reports = sustained_ladder(handle, &requests, &qps_levels, requests_per_level);
    println!("{}", latency_table(&reports).render());
    let engine_levels = levels_json(&reports);

    // -- The cluster topology: 2 shards × 2 replicas ----------------------
    // Same exact-backend rankings, but the paper's deployment shape: ads
    // hash-partitioned, per-shard builds on the worker pool, replicated
    // serving with round-robin.
    let sharded = Arc::new(
        ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .index(index_config)
            .retrieval(retrieval_config)
            .build(&inputs)
            .expect("pipeline inputs always build a valid sharded engine"),
    );
    println!(
        "-- topology: exact x{} shards x{} replicas",
        sharded.num_shards(),
        sharded.replicas()
    );
    let handle = Arc::new(EngineHandle::from_arc(sharded.clone()));
    let reports = sustained_ladder(handle, &requests, &qps_levels, requests_per_level);
    println!("{}", latency_table(&reports).render());
    let healthy_levels = levels_json(&reports);

    // -- The serving runtime: open-loop ladder with admission control -----
    // The same 2x2 topology behind the persistent ServingRuntime: a
    // bounded admission queue, per-request deadlines and SLO-driven load
    // shedding. The offered-QPS ladder runs open-loop with Zipf-skewed
    // template popularity and deliberately crosses saturation: past the
    // knee the runtime keeps p99 bounded by shedding instead of queueing
    // without bound.
    let runtime_config = RuntimeConfig {
        workers: 2,
        queue_depth: 64,
        deadline: Duration::from_millis(250),
        batch_size: 8,
    };
    let runtime =
        ServingRuntime::new(sharded.clone(), runtime_config).expect("a valid runtime config");
    println!(
        "-- serving runtime: 2 shards x 2 replicas, queue depth {}, deadline {:?}",
        runtime_config.queue_depth, runtime_config.deadline,
    );
    let rungs: &[(f64, usize)] = &[
        (250.0, 600),
        (5_000.0, 1_500),
        (50_000.0, 2_000),
        (2_000_000.0, 4_000),
    ];
    let mut runtime_reports: Vec<LoadReport> = Vec::new();
    for &(qps, n) in rungs {
        let r = run_phase(&runtime, &requests, qps, n, zipf(requests.len(), 1.1, seed));
        assert_eq!(
            r.completed + r.shed,
            n,
            "every request is accounted for, served or shed"
        );
        runtime_reports.push(r);
    }
    let mut runtime_table = TextTable::new(vec![
        "Offered QPS",
        "Completed",
        "Shed",
        "Shed rate",
        "Timed out",
        "Goodput QPS",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    for r in &runtime_reports {
        let total = r.completed + r.shed;
        runtime_table.row(vec![
            format!("{:.0}", r.offered_qps),
            r.completed.to_string(),
            r.shed.to_string(),
            format!("{:.3}", r.shed as f64 / (total.max(1)) as f64),
            r.timed_out.to_string(),
            format!("{:.0}", r.goodput_qps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
        ]);
    }
    println!("{}", runtime_table.render());
    let stats = runtime.stats();
    println!(
        "runtime counters: admitted {}, completed {}, failed {}, shed at admission {}, shed on deadline {}\n",
        stats.admitted, stats.completed, stats.failed, stats.shed_queue_full, stats.shed_deadline,
    );
    // CI smoke assertions: below the knee the runtime serves everything;
    // past saturation it must shed (the queue is 64 deep against an
    // arrival rate far beyond service capacity) while p99 stays bounded
    // by the queue instead of growing with the backlog
    let bottom = &runtime_reports[0];
    let top = runtime_reports.last().expect("the ladder has rungs");
    assert_eq!(
        bottom.shed, 0,
        "sub-saturation load must serve without shedding"
    );
    assert_eq!(bottom.completed, rungs[0].1);
    assert!(
        top.shed > 0,
        "past saturation the admission queue must shed (completed {}, shed {})",
        top.completed,
        top.shed
    );
    assert!(
        top.p99_ms < 5_000.0,
        "shedding must keep p99 bounded, got {:.1} ms",
        top.p99_ms
    );

    let json_path = write_bench_json(
        "fig9",
        &Json::obj(vec![
            ("bench", Json::from("fig9_serving_latency")),
            ("scale", Json::from(scale.label())),
            ("backends", engine_levels),
            (
                "topology",
                Json::obj(vec![
                    ("shards", Json::from(sharded.num_shards())),
                    ("replicas", Json::from(sharded.replicas())),
                    ("healthy", healthy_levels),
                ]),
            ),
            (
                "runtime",
                Json::obj(vec![
                    ("shards", Json::from(2usize)),
                    ("replicas", Json::from(2usize)),
                    ("workers", Json::from(runtime_config.workers)),
                    ("queue_depth", Json::from(runtime_config.queue_depth)),
                    (
                        "deadline_ms",
                        Json::from(runtime_config.deadline.as_secs_f64() * 1000.0),
                    ),
                    ("levels", levels_json(&runtime_reports)),
                ]),
            ),
        ]),
    )
    .expect("the bench artefact writes");
    println!("Machine-readable artefact: {}\n", json_path.display());

    println!("Paper (Fig. 9): response time grows from ≈1.2 ms at 1K QPS to ≈4.5 ms at 50K QPS —");
    println!("a ten-fold QPS increase only roughly doubles latency until saturation.");
    println!(
        "Shape to check: mean/p99 latency rises slowly with offered QPS and bends up sharply only"
    );
    println!(
        "once the offered load exceeds what the worker pool can sustain (achieved < offered)."
    );
    println!("Backends: the request loop reads same-length posting prefixes whichever ANN");
    println!("backend built them, so serving is timed once here; table9 reports what a");
    println!("backend changes — build time and recall@20 per backend x knob.");
}
