//! Online serving scenario: build the six inverted indices, compare the
//! coverage of one and two retrieval layers, then serve a 2 shards × 2
//! replicas cluster through the admission-controlled `ServingRuntime`
//! under a flash crowd and a replica failover.
//!
//! This exercises the production-facing half of the system (Section IV-C of
//! the paper): the Q2Q/Q2I/I2Q/I2I first layer, the Q2A/I2A second layer,
//! ad-hash sharding with an exact merge, per-shard replication with
//! round-robin failover, and a bounded admission queue that sheds by
//! typed refusal — the cluster served through the same `dyn Retrieve` the
//! transport layer would hold.
//!
//! Latency against offered QPS is `fig9_serving_latency`'s to report, and
//! recall per ANN backend `table9_scalability`'s; the asserts here are
//! behaviour, not timings.
//!
//! ```bash
//! cargo run --release --example online_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use amcad::core::{build_index_inputs, Pipeline, PipelineConfig};
use amcad::eval::TextTable;
use amcad::retrieval::{
    CoverageSource, Request, RetrievalError, Retrieve, RetrievedAd, RuntimeConfig, ServingRuntime,
    ShardedEngine,
};
use amcad_bench::{round_robin, run_phase};

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

    // Persistent serving runtime: a bounded admission queue with per-request
    // deadlines in front of a 2x2 deployment built from the same
    // embeddings. A flash crowd far past what one worker can drain sheds
    // at the queue with a typed `Overloaded` error instead of letting
    // latency grow without bound, and the recovery phase goes back to
    // serving everything.
    println!("== Serving runtime: flash-crowd shedding, then failover recovery ==\n");
    let inputs = build_index_inputs(&result.export, &result.dataset);
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
    // kill the sibling too: the shard degrades to a *typed* error instead
    // of serving a corpus with a hole in it, and one restored replica
    // brings it back
    cluster.shard(0).fail_replica(1);
    match runtime.retrieve_blocking(&requests[0]) {
        Err(e @ RetrievalError::ShardUnavailable { .. }) => {
            println!("both replicas of shard 0 down -> typed degradation: {e}");
        }
        other => panic!("a shard with zero replicas cannot serve, got {other:?}"),
    }
    cluster.shard(0).restore_replica(0);
    let restored = runtime
        .retrieve_blocking(&requests[0])
        .expect("one restored replica serves again");
    assert_eq!(ranking(restored.ads), reference[0]);
    println!("one replica restored -> serving again, ranking unchanged");
    cluster.shard(0).restore_replica(1);
    let stats = runtime.stats();
    println!(
        "runtime counters: {} admitted, {} completed, {} failed, {} shed at the queue, {} shed past deadline",
        stats.admitted, stats.completed, stats.failed, stats.shed_queue_full, stats.shed_deadline
    );
    assert_eq!(
        stats.failed, 1,
        "the one request answered with ShardUnavailable is the one failure"
    );
}
