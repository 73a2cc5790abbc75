//! Online serving scenario: build the six inverted indices at several
//! shard counts, serve traffic through the `Retrieve` API and measure
//! latency under load, and compare ANN backends by the recall of the
//! posting lists they build.
//!
//! This exercises the production-facing half of the system (Section IV-C of
//! the paper): MNN index construction behind the pluggable `AnnIndex`
//! backend seam, the Q2Q/Q2I/I2Q/I2I first layer, the Q2A/I2A second
//! layer, ad-hash sharding with an exact merge (shards built
//! concurrently, gathered and merged inline at serving time), per-shard
//! replication with round-robin failover, batched serving workers, and an
//! open-loop load test like Fig. 9 — every topology served by the
//! `ServingRuntime` through the same `dyn Retrieve` the transport layer
//! would hold.
//!
//! ```bash
//! cargo run --release --example online_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use amcad::core::{build_index_inputs, Pipeline, PipelineConfig};
use amcad::eval::TextTable;
use amcad::mnn::{HnswConfig, IndexBackend};
use amcad::retrieval::{
    CoverageSource, Request, RetrievalEngine, Retrieve, RetrievedAd, RuntimeConfig, ServingRuntime,
    ShardedEngine,
};
use amcad_bench::{round_robin, run_phase, sustained_ladder};

/// Requests offered per load level.
const REQUESTS_PER_LEVEL: usize = 1_500;

fn main() {
    let result = Pipeline::new(PipelineConfig::small(11)).run();

    let indexes = result.engine.indexes();
    println!(
        "inverted indices built ({} backend): {} posting lists, {} postings total",
        result.engine.backend().label(),
        indexes.total_keys(),
        indexes.total_postings()
    );
    println!(
        "  Q2Q {}  Q2I {}  I2Q {}  I2I {}  Q2A {}  I2A {} keys\n",
        indexes.q2q.len(),
        indexes.q2i.len(),
        indexes.i2q.len(),
        indexes.i2i.len(),
        indexes.q2a.len(),
        indexes.i2a.len()
    );

    // Coverage benefit of the second layer: how many requests get ads from
    // the single-layer (query-only) channel vs the two-layer channel, and
    // which channel provided the coverage.
    let requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
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
    let mut single_covered = 0usize;
    let mut two_covered = 0usize;
    let mut via_preclick = 0usize;
    for r in &requests {
        if !result.engine.retrieve_single_layer(r.query).is_empty() {
            single_covered += 1;
        }
        if let Ok(response) = result.engine.retrieve(r) {
            two_covered += 1;
            if response.stats.coverage == CoverageSource::PreclickItems {
                via_preclick += 1;
            }
        }
    }
    println!(
        "coverage over {} next-day requests: single layer {:.1}%, two layers {:.1}% ({} recovered only through pre-clicks)\n",
        requests.len(),
        100.0 * single_covered as f64 / requests.len() as f64,
        100.0 * two_covered as f64 / requests.len() as f64,
        via_preclick
    );

    // Load test: latency vs offered QPS per serving topology — the single
    // exact engine plus 2- and 4-shard deployments, all served through the
    // same `dyn Retrieve` a transport layer would hold. The pipeline
    // already built the single engine; everything else comes from the
    // same embeddings through the builders.
    let inputs = build_index_inputs(&result.export, &result.dataset);
    let exact_engine = Arc::new(result.engine.clone());
    let sharded: Vec<Arc<ShardedEngine>> = [2usize, 4]
        .into_iter()
        .map(|shards| {
            Arc::new(
                ShardedEngine::builder()
                    .shards(shards)
                    .build_threads(shards) // independent per-shard builds run concurrently
                    .index(*result.engine.index_config())
                    .build(&inputs)
                    .expect("pipeline inputs build a valid sharded engine"),
            )
        })
        .collect();
    // the replicated deployment: 2 serving replicas per shard, each
    // request's shard prefixes merged inline — availability knobs only,
    // rankings stay bit-identical to the single exact engine
    let replicated = Arc::new(
        ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .index(*result.engine.index_config())
            .build(&inputs)
            .expect("pipeline inputs build a valid replicated engine"),
    );
    let topologies: Vec<(String, Arc<dyn Retrieve>)> = vec![
        (
            format!("{} x1", exact_engine.backend().label()),
            exact_engine.clone(),
        ),
        (
            format!("exact x{} shards", sharded[0].num_shards()),
            sharded[0].clone(),
        ),
        (
            format!("exact x{} shards", sharded[1].num_shards()),
            sharded[1].clone(),
        ),
        (
            format!(
                "exact x{} shards x{} replicas",
                replicated.num_shards(),
                replicated.replicas()
            ),
            replicated.clone(),
        ),
    ];
    for (label, engine) in topologies {
        let reports = sustained_ladder(
            engine,
            &requests,
            &[1_000.0, 5_000.0, 20_000.0, 80_000.0],
            REQUESTS_PER_LEVEL,
        );
        let mut table = TextTable::new(vec![
            "Offered QPS",
            "Mean (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "Achieved QPS",
        ]);
        for r in &reports {
            table.row(vec![
                format!("{:.0}", r.offered_qps),
                format!("{:.3}", r.mean_ms),
                format!("{:.3}", r.p95_ms),
                format!("{:.3}", r.p99_ms),
                format!("{:.0}", r.achieved_qps),
            ]);
        }
        println!("topology: {label}\n{}", table.render());
    }
    println!("Sharded topologies return bit-identical rankings to the single exact engine;");
    println!("the per-request fan-out trades a little latency for an N-way split of the");
    println!("ad-side index build and memory (see table9_scalability for the build times).\n");

    // Backend selection demo: the same embeddings behind the exact scan
    // and HNSW graphs at two beam widths — recall of the ad-side posting
    // lists against exact. Serving latency is not compared: the request
    // loop reads the same-length posting prefixes whichever backend built
    // them.
    let top_k = result.engine.index_config().top_k;
    println!("== Backend selection: exact vs HNSW (recall of the built posting lists) ==\n");
    let mut backend_table = TextTable::new(vec!["Backend", "Knob", "Recall@top_k"]);
    let hnsw = |ef_search: usize| {
        RetrievalEngine::builder()
            .index(*result.engine.index_config())
            .backend(IndexBackend::Hnsw(
                HnswConfig::default().with_ef_search(ef_search),
            ))
            .build(&inputs)
            .expect("pipeline inputs build a valid engine")
    };
    let comparisons = [
        ("exact", "-", result.engine.clone()),
        ("hnsw", "ef=4", hnsw(4)),
        ("hnsw", "ef=48", hnsw(48)),
    ];
    for (label, knob, engine) in comparisons {
        let recall = engine
            .indexes()
            .ad_recall_against(result.engine.indexes(), top_k);
        backend_table.row(vec![
            label.to_string(),
            knob.to_string(),
            format!("{recall:.3}"),
        ]);
    }
    println!("{}", backend_table.render());
    println!("HNSW builds its posting lists by walking a small-world graph instead of");
    println!("scanning every ad per key: ef_search widens the walk — higher recall of the");
    println!("exact neighbours, more build work — while serving reads the same-shaped");
    println!("posting lists either way.\n");

    // Failover: kill one replica of shard 0 — traffic reroutes to its
    // sibling with the ranking untouched; kill the sibling too and the
    // shard degrades to a *typed* error instead of serving a corpus with
    // a hole in it.
    let probe = requests
        .iter()
        .find(|r| replicated.retrieve(r).is_ok())
        .cloned()
        .expect("eval sessions cover at least one request");
    let healthy = replicated.retrieve(&probe).unwrap();
    replicated.shard(0).fail_replica(0);
    let failed_over = replicated.retrieve(&probe).unwrap();
    assert_eq!(healthy.ads, failed_over.ads);
    println!(
        "failover demo: killed replica 0 of shard 0; route {:?} -> {:?}, ads unchanged",
        healthy.stats.served_by, failed_over.stats.served_by
    );
    replicated.shard(0).fail_replica(1);
    match replicated.retrieve(&probe) {
        Err(e) => println!("both replicas of shard 0 down -> typed degradation: {e}"),
        Ok(_) => unreachable!("a shard with zero replicas cannot serve"),
    }
    replicated.shard(0).restore_replica(0);
    println!(
        "one replica restored -> serving again: {}",
        replicated.retrieve(&probe).is_ok()
    );

    // Persistent serving runtime: a bounded admission queue with per-request
    // deadlines in front of a 2x2 deployment. A flash crowd far past
    // what one worker can drain sheds at the queue with a typed
    // `Overloaded` error instead of letting latency grow without bound,
    // and the recovery phase goes back to serving everything.
    println!("\n== Serving runtime: flash-crowd shedding, then failover recovery ==\n");
    let cluster = Arc::new(
        ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .index(*result.engine.index_config())
            .build(&inputs)
            .expect("pipeline inputs build a valid replicated engine"),
    );
    let runtime = ServingRuntime::new(
        Arc::clone(&cluster) as Arc<dyn Retrieve>,
        RuntimeConfig {
            workers: 1,
            queue_depth: 16,
            deadline: Duration::from_secs(1),
            batch_size: 4,
        },
    )
    .expect("a positive worker count and queue depth are valid");
    // base phases arrive 10 ms apart — generous headroom over the tiny
    // corpus' sub-millisecond service time, so only the spike can shed
    let phases = [
        ("pre-spike", 100.0, 60),
        ("flash crowd", 5_000_000.0, 2_000),
        ("recovery", 100.0, 60),
    ];
    let reports: Vec<_> = phases
        .iter()
        .map(|&(_, qps, n)| run_phase(&runtime, &requests, qps, n, round_robin(requests.len())))
        .collect();
    let mut crowd_table = TextTable::new(vec![
        "Phase",
        "Offered QPS",
        "Completed",
        "Shed",
        "Goodput QPS",
        "p99 (ms)",
    ]);
    for ((label, _, _), r) in phases.iter().zip(&reports) {
        crowd_table.row(vec![
            label.to_string(),
            format!("{:.0}", r.offered_qps),
            format!("{}", r.completed),
            format!("{}", r.shed),
            format!("{:.0}", r.goodput_qps),
            format!("{:.3}", r.p99_ms),
        ]);
    }
    println!("{}", crowd_table.render());
    assert_eq!(reports[0].shed, 0, "base load fits in the queue");
    assert!(reports[1].shed > 0, "the spike must shed at the queue");
    assert_eq!(
        reports[1].completed + reports[1].shed,
        2_000,
        "every spike request is accounted for"
    );
    assert_eq!(reports[2].shed, 0, "dropping the load restores zero-shed");
    println!(
        "the spike shed {} requests at the admission queue; the recovery",
        reports[1].shed
    );
    println!("phase served everything again — overload degrades by typed refusal,");
    println!("not by unbounded queueing.\n");

    // Failover recovery: fail replica 0 of shard 0. The runtime keeps
    // serving through the same queue while every request to that shard
    // is routed to the healthy sibling — no errors, rankings unchanged.
    let ranking = |ads: Vec<RetrievedAd>| -> Vec<(u32, u64)> {
        ads.iter().map(|a| (a.ad, a.score.to_bits())).collect()
    };
    let reference: Vec<_> = requests
        .iter()
        .take(8)
        .map(|r| ranking(cluster.retrieve(r).expect("the healthy cluster serves").ads))
        .collect();
    let failed_replica_serves = cluster.replica_serves()[0][0];
    cluster.shard(0).fail_replica(0);
    for (r, healthy) in requests.iter().take(8).zip(&reference) {
        let response = runtime
            .retrieve_blocking(r)
            .expect("a sibling replica serves every request");
        assert_eq!(
            &ranking(response.ads),
            healthy,
            "failover changes routes, never rankings"
        );
    }
    assert_eq!(
        cluster.replica_serves()[0][0],
        failed_replica_serves,
        "the failed replica serves nothing"
    );
    println!("failed replica 0 of shard 0: its sibling served all 8 requests with zero");
    println!("errors, every ranking byte-identical to the healthy run.");
    cluster.shard(0).restore_replica(0);
    let stats = runtime.stats();
    println!(
        "runtime counters: {} admitted, {} completed, {} shed at the queue, {} shed past deadline",
        stats.admitted, stats.completed, stats.shed_queue_full, stats.shed_deadline
    );
}
