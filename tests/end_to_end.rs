//! Cross-crate integration tests: the full pipeline, learning quality
//! relative to baselines, and consistency between the model export, the MNN
//! indices and the two-layer retriever.

use amcad::core::{
    build_index_inputs, evaluate_offline, EvalConfig, Pipeline, PipelineConfig, RandomScorer,
};
use amcad::datagen::{Dataset, WorldConfig};
use amcad::graph::{NodeId, NodeType};
use amcad::model::{PairScorer, RelationKind, SgnsConfig, SgnsModel, WalkStrategy};
use amcad::retrieval::{
    EngineHandle, IndexDelta, Request, RetrievalEngine, RetrievalError, RetrievalResponse,
    Retrieve, RuntimeConfig, ServingRuntime, ShardedDeltaBuilder, ShardedEngine,
};
use std::sync::Arc;
use std::time::Duration;

fn pipeline_result() -> amcad::core::PipelineResult {
    Pipeline::new(PipelineConfig::small(2024)).run()
}

/// The topology-invariant view of a served result: the physical
/// `served_by` replica route is deployment attribution (single engines
/// report none, sharded engines one entry per shard), so cross-topology
/// parity is asserted over everything else.
fn logical(
    result: Result<RetrievalResponse, RetrievalError>,
) -> Result<RetrievalResponse, RetrievalError> {
    result
        .map(RetrievalResponse::logical)
        .map_err(RetrievalError::logical)
}

#[test]
fn trained_amcad_beats_a_random_scorer_on_next_day_auc() {
    let result = pipeline_result();
    let eval = EvalConfig {
        max_queries: 30,
        auc_negatives: 3,
        seed: 5,
    };
    let random = evaluate_offline(&RandomScorer::new(5), &result.dataset, &eval);
    assert!(
        result.offline.next_auc > random.next_auc + 5.0,
        "trained model AUC {:.2} should clearly beat random {:.2}",
        result.offline.next_auc,
        random.next_auc
    );
}

#[test]
fn export_distances_and_mnn_postings_agree() {
    let result = pipeline_result();
    let export = &result.export;
    let dataset = &result.dataset;
    // For a handful of queries: the Q2A posting list produced by the MNN
    // index must be ordered consistently with the export's own distances.
    let q2a = &result.engine.indexes().q2a;
    let mut checked = 0;
    for &q in dataset.query_nodes.iter().take(10) {
        let Some(postings) = q2a.get(q.0) else {
            continue;
        };
        if postings.len() < 2 {
            continue;
        }
        for w in postings.windows(2) {
            let d0 = export.distance(q, NodeId(w[0].0)).unwrap();
            let d1 = export.distance(q, NodeId(w[1].0)).unwrap();
            assert!(
                d0 <= d1 + 1e-9,
                "posting order must match export distances ({d0} vs {d1})"
            );
            // the stored posting distance is the export distance
            assert!((w[0].1 - d0).abs() < 1e-9);
        }
        checked += 1;
    }
    assert!(checked >= 5, "need enough queries with Q2A postings");
}

#[test]
fn two_layer_retrieval_returns_ads_relevant_to_the_query_category() {
    let result = pipeline_result();
    let dataset = &result.dataset;
    let mut relevant = 0usize;
    let mut total = 0usize;
    for session in dataset.eval_sessions.iter().take(50) {
        let pre: Vec<u32> = dataset
            .preclick_items(session)
            .iter()
            .map(|n| n.0)
            .collect();
        let ads = result
            .engine
            .retrieve(&Request {
                query: session.query.0,
                preclick_items: pre,
            })
            .map(|response| response.ads)
            .unwrap_or_default();
        for ad in ads.iter().take(5) {
            total += 1;
            let ad_node = NodeId(ad.ad);
            assert_eq!(dataset.graph.node_type(ad_node), NodeType::Ad);
            if dataset.graph.category(ad_node) == dataset.graph.category(session.query) {
                relevant += 1;
            }
        }
    }
    assert!(
        total > 0,
        "the retriever should serve ads for next-day sessions"
    );
    // The `small` preset trains for only a few dozen steps (debug-mode test
    // budget), so category selectivity is weak but must not collapse to
    // zero; the release-mode experiment harness uses far larger budgets.
    let frac = relevant as f64 / total as f64;
    assert!(
        frac > 0.05,
        "retrieved ads should show some category affinity, got {frac:.2}"
    );
}

#[test]
fn walk_baselines_and_amcad_are_comparable_through_the_same_protocol() {
    // Both kinds of scorer run through the identical evaluation path — the
    // property the Table VI harness relies on.
    let dataset = Dataset::generate(&WorldConfig::tiny(91));
    let eval = EvalConfig {
        max_queries: 20,
        auc_negatives: 3,
        seed: 91,
    };
    let sgns = SgnsModel::train(
        &dataset.graph,
        &WalkStrategy::default_deepwalk(),
        &SgnsConfig {
            dim: 16,
            epochs: 2,
            ..Default::default()
        },
    );
    let m = evaluate_offline(&sgns, &dataset, &eval);
    assert!(m.next_auc.is_finite());
    assert!(
        m.next_auc > 40.0,
        "DeepWalk should be clearly above chance-floor scores"
    );
    assert_eq!(sgns.scorer_name(), "DeepWalk");
}

#[test]
fn sharded_serving_and_hot_swap_agree_with_the_monolithic_engine_end_to_end() {
    // The serving triad over real pipeline output: a ShardedEngine must
    // reproduce the monolithic engine's responses exactly at every shard
    // count, directly and through an EngineHandle publish cycle.
    let result = pipeline_result();
    let inputs = build_index_inputs(&result.export, &result.dataset);
    let requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
        .take(40)
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
    let handle = EngineHandle::new(result.engine.clone());
    for shards in [2usize, 4] {
        let sharded = ShardedEngine::builder()
            .shards(shards)
            .replicas(2)
            .index(*result.engine.index_config())
            .build(&inputs)
            .expect("pipeline inputs build a valid sharded engine");
        let generation = handle.publish(sharded.clone());
        assert_eq!(handle.generation(), generation);
        for request in &requests {
            let single = logical(result.engine.retrieve(request));
            assert_eq!(
                single,
                logical(sharded.retrieve(request)),
                "{shards}-shard parity"
            );
            assert_eq!(
                single,
                logical(handle.retrieve(request)),
                "handle serves the published build"
            );
        }
        // batch path through the trait object, one pinned snapshot: the
        // sharded batch must equal the single-node batch exactly (same
        // rankings, same deduplicated scan attribution)
        let serving: &dyn Retrieve = &handle;
        let sharded_batch: Vec<_> = serving
            .retrieve_batch(&requests)
            .into_iter()
            .map(logical)
            .collect();
        let single_batch: Vec<_> = result
            .engine
            .retrieve_batch(&requests)
            .into_iter()
            .map(logical)
            .collect();
        assert_eq!(sharded_batch, single_batch);
    }
}

#[test]
fn delta_publishes_match_full_rebuilds_over_real_pipeline_output() {
    // The incremental freshness story end to end: a deployment serving
    // real pipeline output absorbs a corpus churn (on-boarded + retired
    // ads) through EngineHandle::publish_delta, and the delta-built
    // generation serves exactly what a from-scratch rebuild of the
    // post-delta corpus serves — sharded or monolithic.
    let result = pipeline_result();
    let inputs = build_index_inputs(&result.export, &result.dataset);
    let index_config = *result.engine.index_config();
    let requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
        .take(25)
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
    // generation 1 serves the corpus minus a hold-out; the delta
    // on-boards the hold-out and retires a few live ads
    let ad_ids: Vec<u32> = inputs.ads_qa.ids().to_vec();
    let held_out: Vec<u32> = ad_ids.iter().rev().take(5).copied().collect();
    let retired: Vec<u32> = ad_ids.iter().take(5).copied().collect();
    let mut base = inputs.clone();
    base.ads_qa.retire(|id| held_out.contains(&id));
    base.ads_ia.retire(|id| held_out.contains(&id));
    let delta = IndexDelta {
        added_ads_qa: inputs.ads_qa.filtered(|id| held_out.contains(&id)),
        added_ads_ia: inputs.ads_ia.filtered(|id| held_out.contains(&id)),
        retired_ads: retired.clone(),
    };
    // ground truth: the post-delta corpus rebuilt from scratch
    let mut post = base.clone();
    delta.apply_to(&mut post);
    let fresh_single = RetrievalEngine::builder()
        .index(index_config)
        .build(&post)
        .expect("the post-delta corpus builds a monolithic engine");
    for shards in [2usize, 4] {
        let mut builder = ShardedDeltaBuilder::new(
            &base,
            ShardedEngine::builder().shards(shards).index(index_config),
        )
        .expect("pipeline inputs seed a valid delta builder");
        let handle = EngineHandle::new(builder.engine().expect("generation 1 serves"));
        let generation = handle
            .publish_delta(&mut builder, &delta)
            .expect("the churn delta is valid");
        assert_eq!(
            generation, 2,
            "{shards} shards: delta publish bumps the generation"
        );
        let fresh_sharded = ShardedEngine::builder()
            .shards(shards)
            .index(index_config)
            .build(&post)
            .expect("the post-delta corpus builds a sharded engine");
        for request in &requests {
            let via_delta = logical(handle.retrieve(request));
            assert_eq!(
                via_delta,
                logical(fresh_single.retrieve(request)),
                "{shards} shards: delta generation diverged from the monolithic rebuild"
            );
            assert_eq!(
                via_delta,
                logical(fresh_sharded.retrieve(request)),
                "{shards} shards: delta generation diverged from the sharded rebuild"
            );
        }
    }
}

#[test]
fn replica_failover_preserves_every_ranking_over_real_pipeline_output() {
    // The availability half of the cluster story, end to end: a replicated
    // sharded deployment over real pipeline output keeps serving identical
    // rankings while replicas die one by one, and degrades to the typed
    // ShardUnavailable — never a panic — only when a shard loses its last
    // replica.
    let result = pipeline_result();
    let inputs = build_index_inputs(&result.export, &result.dataset);
    let sharded = ShardedEngine::builder()
        .shards(2)
        .replicas(2)
        .index(*result.engine.index_config())
        .build(&inputs)
        .expect("pipeline inputs build a valid replicated engine");
    let requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
        .take(20)
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
    let healthy: Vec<_> = requests
        .iter()
        .map(|r| logical(sharded.retrieve(r)))
        .collect();
    for shard in 0..sharded.active_shards() {
        for replica in 0..sharded.replicas() {
            sharded.shard(shard).fail_replica(replica);
            for (request, expected) in requests.iter().zip(&healthy) {
                let served = sharded.retrieve(request);
                if let Ok(response) = &served {
                    assert_ne!(
                        response.stats.served_by[shard].replica, replica as u32,
                        "traffic must reroute away from the killed replica"
                    );
                }
                assert_eq!(&logical(served), expected, "failover changed a response");
            }
            sharded.shard(shard).restore_replica(replica);
        }
    }
    // shard 0 loses both replicas: typed degradation, then full recovery
    sharded.shard(0).fail_replica(0);
    sharded.shard(0).fail_replica(1);
    assert!(matches!(
        sharded.retrieve(&requests[0]),
        Err(RetrievalError::ShardUnavailable {
            shard: 0,
            replicas: 2
        })
    ));
    sharded.shard(0).restore_replica(0);
    assert_eq!(logical(sharded.retrieve(&requests[0])), healthy[0]);
}

#[test]
fn sharded_serving_is_byte_identical_across_topologies_and_through_the_runtime() {
    // Across shards 1/2/4 x replicas 1/2, an engine built on two threads
    // serves **byte-identically** to the sequential build — every
    // ranking, every logical stat, every physical route, the batch dedup
    // attribution, and every typed error — and the same engine behind the
    // ServingRuntime serves its own responses.
    let result = pipeline_result();
    let inputs = build_index_inputs(&result.export, &result.dataset);
    let index_config = *result.engine.index_config();
    let mut requests: Vec<Request> = result
        .dataset
        .eval_sessions
        .iter()
        .take(16)
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
    // an unknown query exercises the typed error path
    requests.push(Request {
        query: u32::MAX,
        preclick_items: vec![],
    });
    for shards in [1usize, 2, 4] {
        for replicas in [1usize, 2] {
            let build = |build_threads: usize| {
                ShardedEngine::builder()
                    .shards(shards)
                    .replicas(replicas)
                    .index(index_config)
                    .build_threads(build_threads)
                    .build(&inputs)
                    .expect("pipeline inputs build a valid sharded engine")
            };
            let sequential = build(1);
            let parallel = build(2);
            for request in &requests {
                assert_eq!(
                    sequential.retrieve(request),
                    parallel.retrieve(request),
                    "{shards} shards x {replicas} replicas: parallel build diverged"
                );
            }
            // the batch path with repeats: cross-request dedup
            // attribution must still be byte-identical
            let mut batch = requests.clone();
            batch.push(requests[0].clone());
            batch.push(requests[2].clone());
            assert_eq!(
                sequential.retrieve_batch(&batch),
                parallel.retrieve_batch(&batch),
                "{shards} shards x {replicas} replicas: parallel batch diverged"
            );
            // error case: a dead shard types identically
            sequential.shard(0).fail_replica(0);
            parallel.shard(0).fail_replica(0);
            if replicas == 1 {
                for request in &requests {
                    assert_eq!(
                        sequential.retrieve(request),
                        parallel.retrieve(request),
                        "dead-shard errors must match"
                    );
                }
            }
            sequential.shard(0).restore_replica(0);
            parallel.shard(0).restore_replica(0);
        }
    }
    // the same engine behind the ServingRuntime: admitted tickets serve
    // the engine's exact responses (single path), and a burst through the
    // batching workers preserves every ranking
    let engine = Arc::new(
        ShardedEngine::builder()
            .shards(2)
            .replicas(2)
            .index(index_config)
            .build_threads(1)
            .build(&inputs)
            .expect("pipeline inputs build a valid sharded engine"),
    );
    let runtime = ServingRuntime::new(
        Arc::clone(&engine) as Arc<dyn Retrieve>,
        RuntimeConfig {
            workers: 1,
            queue_depth: 64,
            deadline: Duration::from_secs(30),
            batch_size: 4,
        },
    )
    .expect("a valid runtime config");
    let mut errors = 0;
    for request in &requests {
        let served = runtime.retrieve_blocking(request);
        errors += u64::from(served.is_err());
        assert_eq!(
            logical(engine.retrieve(request)),
            logical(served),
            "the runtime must serve the engine's exact logical response"
        );
    }
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| runtime.submit(r.clone()).expect("queue is deep enough"))
        .collect();
    for (request, ticket) in requests.iter().zip(tickets) {
        let expected = engine.retrieve(request).map(|r| r.ads);
        let got = ticket.wait().map(|r| r.ads);
        errors += u64::from(got.is_err());
        assert_eq!(
            logical_ads(expected),
            logical_ads(got),
            "a batched runtime pass changed a ranking"
        );
    }
    // every admitted request was answered: with a ranking, or with the
    // engine's own error (no coverage), never shed
    let stats = runtime.stats();
    assert_eq!(stats.shed_queue_full + stats.shed_deadline, 0);
    assert_eq!(stats.failed, errors);
    assert_eq!(stats.admitted, stats.completed + stats.failed);
}

/// Rankings only (batch grouping inside the runtime is timing-dependent,
/// so scan-dedup attribution may differ; rankings never may).
fn logical_ads(
    result: Result<Vec<amcad::retrieval::RetrievedAd>, RetrievalError>,
) -> Result<Vec<amcad::retrieval::RetrievedAd>, RetrievalError> {
    result.map_err(RetrievalError::logical)
}

#[test]
fn export_covers_all_five_relation_spaces_for_pipeline_output() {
    let result = pipeline_result();
    for kind in RelationKind::ALL {
        let space = &result.export.spaces[&kind];
        assert!(
            !space.is_empty(),
            "relation space {kind:?} must not be empty"
        );
        // every stored weight vector is a distribution over subspaces
        for w in space.weights.values().take(20) {
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }
}
