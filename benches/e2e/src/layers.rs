//! The traced run: every layer called on its own, serially, from outside,
//! one span per call; the per-layer metrics are computed from the spans.
//!
//! Each layer is swept over the same request ids (layer-major, so every
//! layer meets the same cache state), outermost layer first; the span of
//! the layer above is the parent of the span below for the same id. The
//! derived "overhead" metrics are differences of medians over those ids.
//! Loaded phases run only to read the runtime's counters and the load
//! generator's own lateness; they claim nothing.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amcad_manifold::distance_gram;
use amcad_mnn::quant::AsymmetricTable;
use amcad_mnn::{HnswConfig, IndexBackend, IvfConfig, MixedPointSet, QuantConfig, QuantIndex};
use amcad_retrieval::{
    EngineHandle, IndexBuildConfig, IndexBuildInputs, IndexSet, PersistentPool, Request,
    RetrievalEngine, RetrievalResponse, Retrieve, ShardedDeltaBuilder, ShardedEngine, Ticket,
    TwoLayerRetriever,
};

use crate::checks::{Served, Tally, CHECK_REQUESTS};
use crate::corpus::{Scale, KAPPAS};
use crate::deploy::{self, Setup, INDEX, RETRIEVAL, THREADS, TOP_K};
use crate::loadgen::open_loop;
use crate::rng::Rng;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{Outcome, Plan};
use crate::Error;

/// The approximate backends at the library's documented defaults, spelt
/// out so that a changed default cannot silently change what is measured.
const IVF: IvfConfig = IvfConfig {
    num_clusters: 16,
    kmeans_iters: 8,
    nprobe: 4,
    seed: 11,
};
const HNSW: HnswConfig = HnswConfig {
    m: 16,
    ef_construction: 80,
    ef_search: 48,
    seed: 0x45f,
};
const QUANT: QuantConfig = QuantConfig {
    ksub: 16,
    train_iters: 8,
    rerank_k: 48,
    seed: 13,
};
/// Label, search-span name, configuration and recall floor of each
/// backend. The floor is the ad-side recall@20 the backend must keep
/// against the exact index on the measured corpus: the first value
/// measured (seed 1: 1.0, 1.0, 1.0, 0.765) minus 0.02 — a guard, not a
/// target.
const BACKENDS: [(&str, &str, IndexBackend, f64); 4] = [
    ("exact", "ann.exact.search", IndexBackend::Exact, 1.0),
    ("ivf", "ann.ivf.search", IndexBackend::Ivf(IVF), 0.98),
    ("hnsw", "ann.hnsw.search", IndexBackend::Hnsw(HNSW), 0.98),
    (
        "quant",
        "ann.quant.search",
        IndexBackend::Quant(QUANT),
        0.745,
    ),
];

const KERNEL_TRIPLES: usize = 4096;
const KERNEL_BATCHES: usize = 101;
const SCAN_KEYS: usize = 64;
const SEARCH_QUERIES: usize = 200;
const EXACT_BUILDS: u64 = 3;
const POOL_RUNS: usize = 2_000;
const PUBLISHES: usize = 200;
const OVERHEAD_PAIRS: usize = 5;
const DELTAS: usize = 3;
const SNAPSHOTS: usize = 3;
/// Share of `--seconds` each loaded phase (rate_lo, rate_hi) runs for.
const LOADED_SHARE: f64 = 0.15;

/// Per-layer metrics, in the order BENCHMARK.json lists them.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("manifold.gram_hyp_ns", "ns"),
    ("manifold.gram_euc_ns", "ns"),
    ("manifold.gram_sph_ns", "ns"),
    ("soa.scan_range_ns_per_point", "ns"),
    ("soa.scan_range_gb_per_s", "GB/s"),
    ("soa.scan_indices_ns_per_point", "ns"),
    ("quant.code_scan_ns_per_point", "ns"),
    ("ann.exact.instantiate_s", "s"),
    ("ann.exact.search_us", "us"),
    ("ann.exact.build_s", "s"),
    ("ann.exact.recall_at_20", "ratio"),
    ("ann.ivf.instantiate_s", "s"),
    ("ann.ivf.search_us", "us"),
    ("ann.ivf.build_s", "s"),
    ("ann.ivf.recall_at_20", "ratio"),
    ("ann.hnsw.instantiate_s", "s"),
    ("ann.hnsw.search_us", "us"),
    ("ann.hnsw.build_s", "s"),
    ("ann.hnsw.recall_at_20", "ratio"),
    ("ann.quant.instantiate_s", "s"),
    ("ann.quant.search_us", "us"),
    ("ann.quant.build_s", "s"),
    ("ann.quant.recall_at_20", "ratio"),
    ("ann.quant.bytes_per_ad", "B"),
    ("index_set.q2q_s", "s"),
    ("index_set.q2i_s", "s"),
    ("index_set.i2q_s", "s"),
    ("index_set.i2i_s", "s"),
    ("index_set.q2a_s", "s"),
    ("index_set.i2a_s", "s"),
    ("index_set.pairs_per_s", "1/s"),
    ("retriever.retrieve_us", "us"),
    ("engine.retrieve_us", "us"),
    ("engine.batch8_us_per_req", "us"),
    ("engine.batch_dedup_ratio", "ratio"),
    ("retriever.keys_expanded_mean", "count"),
    ("retriever.postings_scanned_mean", "count"),
    ("shard.retrieve_us", "us"),
    ("shard.gather_overhead_us", "us"),
    ("shard.batch8_us_per_req", "us"),
    ("shard.build_s", "s"),
    ("pool.dispatch_us", "us"),
    ("handle.retrieve_overhead_us", "us"),
    ("handle.publish_us", "us"),
    ("runtime.roundtrip_us", "us"),
    ("runtime.queue_overhead_us", "us"),
    ("runtime.admitted", "count"),
    ("runtime.completed", "count"),
    ("runtime.shed_queue_full", "count"),
    ("runtime.shed_deadline", "count"),
    ("delta.apply_s", "s"),
    ("delta.vs_rebuild_ratio", "ratio"),
    ("delta.touched_shards", "count"),
    ("store.save_mb_per_s", "MiB/s"),
    ("store.load_mb_per_s", "MiB/s"),
    ("store.bytes_per_ad", "B"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.lat_p99_ms", "ms"),
    ("loadgen.lat_p999_ms", "ms"),
    ("loadgen.trace_overhead_share", "ratio"),
    ("fail_share", "ratio"),
];

struct Run<'a> {
    tracer: Tracer,
    metrics: HashMap<String, f64>,
    tally: Tally,
    setup: &'a Setup,
}

impl Run<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn median_us(&self, span: &str) -> f64 {
        median(&self.tracer.durations_us(span))
    }

    fn span_s(&self, span: usize) -> f64 {
        self.tracer.spans()[span].duration_ns() as f64 / 1e9
    }
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// `manifold`: the Gram-form distance, one curvature sign at a time.
fn kernel(run: &mut Run, seed: u64) {
    let mut rng = Rng::new(seed, 4);
    // squared norms and inner products of points inside the ball
    let triples: Vec<(f64, f64, f64)> = (0..KERNEL_TRIPLES)
        .map(|_| {
            let (x2, y2) = (rng.unit() * 0.5, rng.unit() * 0.5);
            (x2, y2, rng.symmetric((x2 * y2).sqrt()))
        })
        .collect();
    let names = [
        "manifold.gram_hyp_ns",
        "manifold.gram_euc_ns",
        "manifold.gram_sph_ns",
    ];
    for (name, kappa) in names.into_iter().zip(KAPPAS) {
        for batch in 0..KERNEL_BATCHES {
            run.tracer.span(name, batch as u64, None, || {
                let mut acc = 0.0;
                for &(x2, y2, xy) in black_box(&triples) {
                    acc += distance_gram(x2, y2, xy, black_box(kappa));
                }
                black_box(acc)
            });
        }
        let per_call_ns = run.median_us(name) * 1e3 / KERNEL_TRIPLES as f64;
        run.put(name, per_call_ns);
    }
}

/// `mnn.soa` / `mnn.quant`: the scan kernels over the I-A ad lanes, the
/// largest candidate set of a build.
fn scans(run: &mut Run, seed: u64, parent: Option<usize>) {
    let inputs = &run.setup.corpus.inputs;
    let (keys, ads): (&MixedPointSet, &MixedPointSet) = (&inputs.items_ia, &inputs.ads_ia);
    let blocks = ads.blocks();
    let n = blocks.len();
    let mut out = vec![0.0; n];
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 5).shuffle(&mut order);
    let gathered = &order[..n / 4];
    for k in 0..SCAN_KEYS.min(keys.len()) {
        let (query, weight) = (keys.point(k), keys.weight(k));
        let grams = blocks.query_grams(query);
        run.tracer.span("soa.scan_range", k as u64, parent, || {
            blocks.scan_range_into(&grams, black_box(query), weight, 0, &mut out);
            black_box(&mut out);
        });
        let out = &mut out[..gathered.len()];
        run.tracer.span("soa.scan_indices", k as u64, parent, || {
            blocks.scan_indices_into(&grams, black_box(query), weight, gathered, out);
            black_box(out);
        });
    }
    let range_ns = run.median_us("soa.scan_range") * 1e3 / n as f64;
    // bytes the sweep reads per point, computed from the lane sizes (not
    // measured): per component its coordinates, squared norm and weight
    let bytes_per_point: usize = (0..blocks.num_components())
        .map(|m| 8 * blocks.dim(m) + 16)
        .sum();
    run.put("soa.scan_range_ns_per_point", range_ns);
    run.put("soa.scan_range_gb_per_s", bytes_per_point as f64 / range_ns);
    run.put(
        "soa.scan_indices_ns_per_point",
        run.median_us("soa.scan_indices") * 1e3 / gathered.len() as f64,
    );

    let quant = QuantIndex::build(inputs.ads_qa.clone(), QUANT);
    let codes = quant.codes();
    let mut rng = Rng::new(seed, 6);
    let mut offsets = vec![0];
    let mut entries = Vec::new();
    for book in quant.codebooks() {
        entries.extend((0..book.len()).map(|_| rng.unit()));
        offsets.push(entries.len());
    }
    let table = AsymmetricTable::from_parts(entries, offsets);
    let out = &mut out[..codes.len()];
    for k in 0..SCAN_KEYS.min(keys.len()) {
        run.tracer.span("quant.code_scan", k as u64, None, || {
            codes.scan_range_into(black_box(&table), keys.weight(k), 0, out);
            black_box(&mut *out);
        });
    }
    run.put(
        "quant.code_scan_ns_per_point",
        run.median_us("quant.code_scan") * 1e3 / codes.len() as f64,
    );
    run.put(
        "ann.quant.bytes_per_ad",
        quant.quantised_bytes_per_ad() as f64,
    );
}

/// The six indices of a build: metric name, keys, candidates, and whether
/// a key is excluded from its own posting list.
fn index_pairs(
    inputs: &IndexBuildInputs,
) -> [(&'static str, &MixedPointSet, &MixedPointSet, bool); 6] {
    let i = inputs;
    [
        ("index_set.q2q_s", &i.queries_qq, &i.queries_qq, true),
        ("index_set.q2i_s", &i.queries_qi, &i.items_qi, false),
        ("index_set.i2q_s", &i.items_qi, &i.queries_qi, false),
        ("index_set.i2i_s", &i.items_ii, &i.items_ii, true),
        ("index_set.q2a_s", &i.queries_qa, &i.ads_qa, false),
        ("index_set.i2a_s", &i.items_ia, &i.ads_ia, false),
    ]
}

/// `mnn.backend` and `retrieval.index_set`: each backend instantiated,
/// searched and used for a full build; the exact build taken apart index
/// by index. Returns the exact index set and the span of its I2A build.
fn backends(run: &mut Run, scale: Scale) -> Result<(IndexSet, usize), Error> {
    let inputs = &run.setup.corpus.inputs;
    let queries = &inputs.queries_qa;
    let mut exact: Option<(IndexSet, usize)> = None;
    for (label, search_span, backend, floor) in BACKENDS {
        let candidates = inputs.ads_qa.clone();
        let started = Instant::now();
        let index = black_box(backend.instantiate(candidates, THREADS));
        run.put(format!("ann.{label}.instantiate_s"), secs(started));
        for q in 0..SEARCH_QUERIES.min(queries.len()) {
            run.tracer.span(search_span, q as u64, None, || {
                black_box(index.search(black_box(queries.point(q)), queries.weight(q), TOP_K, None))
            });
        }
        run.put(format!("ann.{label}.search_us"), run.median_us(search_span));
        drop(index);

        // a full build per backend; the exact one (BACKENDS lists it first)
        // several times over, each followed by the same build index by index
        let config = IndexBuildConfig { backend, ..INDEX };
        let by_index = exact.is_none();
        let (mut build_s, mut built) = (Vec::new(), None);
        for rep in 0..if by_index { EXACT_BUILDS } else { 1 } {
            let (build_span, set) = run.tracer.span("index_set.build", rep, None, || {
                IndexSet::build(black_box(inputs), config)
            });
            build_s.push(run.span_s(build_span));
            let mut last_span = build_span;
            if by_index {
                for (name, keys, candidates, exclude_same) in index_pairs(inputs) {
                    (last_span, _) = run.tracer.span(name, rep, Some(build_span), || {
                        black_box(backend.build_index(
                            keys,
                            candidates,
                            TOP_K,
                            exclude_same,
                            THREADS,
                        ))
                    });
                }
            }
            built = Some((set?, last_span));
        }
        let (set, last_span) = built.expect("at least one build");
        run.put(format!("ann.{label}.build_s"), median(&build_s));
        let reference = exact.as_ref().map_or(&set, |(exact, _)| exact);
        let recall = set.ad_recall_against(reference, TOP_K);
        run.put(format!("ann.{label}.recall_at_20"), recall);
        // the floors were measured on the full corpus only
        run.tally
            .record(scale != Scale::C6K || recall >= floor, || {
                format!("{label} recall@20 {recall} fell below its floor {floor}")
            });
        if by_index {
            let mut total_s = 0.0;
            for (name, ..) in index_pairs(inputs) {
                let index_s = run.median_us(name) / 1e6;
                run.put(name, index_s);
                total_s += index_s;
            }
            run.put(
                "index_set.pairs_per_s",
                scale.build_pairs() as f64 / total_s,
            );
            exact = Some((set, last_span));
        }
    }
    Ok(exact.expect("BACKENDS is not empty"))
}

/// Call one layer for every request, one span each; `parents[i]` is the
/// span of the layer above for request `i`.
fn sweep<T>(
    run: &mut Run,
    name: &'static str,
    requests: &[Request],
    parents: Option<&[usize]>,
    mut call: impl FnMut(&Request) -> T,
) -> (Vec<usize>, Vec<T>) {
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            run.tracer.span(name, i as u64, parents.map(|p| p[i]), || {
                call(black_box(request))
            })
        })
        .unzip()
}

/// Batches of eight through `serve`; returns the median time per request
/// and the postings the batches scanned in total.
fn batches(
    run: &mut Run,
    name: &'static str,
    requests: &[Request],
    serve: impl Fn(&[Request]) -> Vec<Served>,
) -> (f64, usize) {
    let mut scanned = 0;
    for (at, chunk) in requests.chunks_exact(8).enumerate() {
        let (_, responses) = run
            .tracer
            .span(name, at as u64, None, || serve(black_box(chunk)));
        scanned += responses
            .iter()
            .flatten()
            .map(|r| r.stats.postings_scanned)
            .sum::<usize>();
    }
    (run.median_us(name) / 8.0, scanned)
}

/// The request path, layer by layer: `runtime` ⊃ `handle` ⊃ `shard` |
/// `engine` ⊃ `retriever`.
fn request_path(run: &mut Run, exact: IndexSet) -> Result<(), Error> {
    let setup = run.setup;
    let requests = &setup.pool[..CHECK_REQUESTS.min(setup.pool.len())];
    let (handle, runtime) = (&setup.deployment.handle, &setup.deployment.runtime);
    let sharded: ShardedEngine = setup.deployment.builder.engine()?;
    let on_path = !setup.deployment.topology.is_single();
    let engine = Arc::new(
        RetrievalEngine::builder()
            .index(INDEX)
            .retrieval(RETRIEVAL)
            .build_from_indexes(exact.clone())?,
    );
    let retriever = TwoLayerRetriever::new(exact, RETRIEVAL);

    let (roundtrips, via_runtime) = sweep(run, "runtime.roundtrip", requests, None, |r| {
        runtime.submit(r.clone()).and_then(Ticket::wait)
    });
    let (handles, via_handle) = sweep(run, "handle.retrieve", requests, Some(&roundtrips), |r| {
        handle.retrieve(r)
    });
    // on the single topology no request passes through a sharded engine:
    // its 1x1 gather is timed beside the chain, not inside it
    let (shards, via_shard) = sweep(
        run,
        "shard.retrieve",
        requests,
        on_path.then_some(&handles[..]),
        |r| sharded.retrieve(r),
    );
    let above_engine = if on_path { &shards } else { &handles };
    let (engines, via_engine) = sweep(run, "engine.retrieve", requests, Some(above_engine), |r| {
        engine.retrieve(r)
    });
    let (_, via_retriever) = sweep(run, "retriever.retrieve", requests, Some(&engines), |r| {
        retriever.retrieve_with_stats(r.query, &r.preclick_items)
    });

    // what the deployment serves was gathered from the topology's shards:
    // from none on the single topology, where a plain engine answers
    let route_len = setup.deployment.topology.route_len();
    let routed = |got: &Served| matches!(got, Ok(r) if r.stats.served_by.len() == route_len);
    for (i, request) in requests.iter().enumerate() {
        let want = via_engine[i].clone().map(RetrievalResponse::logical);
        let same = |got: &Served| got.clone().map(RetrievalResponse::logical) == want;
        let ok = want.is_ok()
            && routed(&via_runtime[i])
            && routed(&via_handle[i])
            && same(&via_runtime[i])
            && same(&via_handle[i])
            && same(&via_shard[i])
            && want.as_ref().is_ok_and(|w| w.ads == via_retriever[i].0);
        run.tally.record(ok, || {
            format!("query {}: the layers disagree on the answer", request.query)
        });
    }

    let (engine_us, shard_us, handle_us, roundtrip_us) = (
        run.median_us("engine.retrieve"),
        run.median_us("shard.retrieve"),
        run.median_us("handle.retrieve"),
        run.median_us("runtime.roundtrip"),
    );
    run.put("retriever.retrieve_us", run.median_us("retriever.retrieve"));
    run.put("engine.retrieve_us", engine_us);
    run.put("shard.retrieve_us", shard_us);
    run.put("shard.gather_overhead_us", shard_us - engine_us);
    // what the handle adds to the engine it wraps
    let wrapped_us = if on_path { shard_us } else { engine_us };
    run.put("handle.retrieve_overhead_us", handle_us - wrapped_us);
    run.put("runtime.roundtrip_us", roundtrip_us);
    run.put("runtime.queue_overhead_us", roundtrip_us - handle_us);
    // what the tracer costs: the serial `engine.retrieve` loop without it
    // and with it (into a tracer that is thrown away), in alternation, so
    // that neither side always meets the warmer cache
    let overheads: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|_| {
            let started = Instant::now();
            for request in requests {
                black_box(engine.retrieve(black_box(request))).ok();
            }
            let untraced_s = secs(started);
            let mut scratch = Tracer::new();
            let started = Instant::now();
            for (i, request) in requests.iter().enumerate() {
                scratch.span("engine.retrieve", i as u64, None, || {
                    black_box(engine.retrieve(black_box(request))).ok()
                });
            }
            (secs(started) - untraced_s) / untraced_s
        })
        .collect();
    run.put("loadgen.trace_overhead_share", median(&overheads));

    let stats: Vec<_> = via_retriever.iter().map(|(_, stats)| stats).collect();
    let expanded: Vec<f64> = stats.iter().map(|s| s.keys_expanded as f64).collect();
    let scanned: Vec<f64> = stats.iter().map(|s| s.postings_scanned as f64).collect();
    run.put("retriever.keys_expanded_mean", mean(&expanded));
    run.put("retriever.postings_scanned_mean", mean(&scanned));

    let batched = requests.len() / 8 * 8;
    let scanned_singly: f64 = scanned[..batched].iter().sum();
    let (per_request_us, scanned_in_batches) =
        batches(run, "engine.retrieve_batch", requests, |chunk| {
            engine.retrieve_batch(chunk)
        });
    run.put("engine.batch8_us_per_req", per_request_us);
    run.put(
        "engine.batch_dedup_ratio",
        scanned_in_batches as f64 / scanned_singly,
    );
    let (per_request_us, _) = batches(run, "shard.retrieve_batch", requests, |chunk| {
        sharded.retrieve_batch(chunk)
    });
    run.put("shard.batch8_us_per_req", per_request_us);

    // `runtime.park_pool` and `snapshot` on their own
    let pool = PersistentPool::new(THREADS);
    for i in 0..POOL_RUNS {
        run.tracer.span("pool.run", i as u64, None, || {
            black_box(pool.run(4, black_box))
        });
    }
    run.put("pool.dispatch_us", run.median_us("pool.run"));
    let scratch = EngineHandle::from_arc(Arc::clone(&engine) as Arc<dyn Retrieve>);
    for i in 0..PUBLISHES {
        let next = Arc::clone(&engine) as Arc<dyn Retrieve>;
        run.tracer.span("handle.publish", i as u64, None, || {
            scratch.publish_arc(next)
        });
    }
    run.put("handle.publish_us", run.median_us("handle.publish"));
    Ok(())
}

/// Two short loaded phases, for the runtime's counters and the load
/// generator's own lateness.
fn loaded(run: &mut Run, plan: &Plan, seconds: f64) {
    let setup = run.setup;
    let runtime = &setup.deployment.runtime;
    let never = AtomicBool::new(false);
    let window = Duration::from_secs_f64(LOADED_SHARE * seconds);
    let lo = open_loop(runtime, &setup.pool, 0, plan.rate_lo, window, &never);
    let hi = open_loop(
        runtime,
        &setup.pool,
        setup.pool.len() / 2,
        plan.rate_hi,
        window,
        &never,
    );
    run.tally.add_phase("rate_lo", &lo);
    run.tally.add_phase("rate_hi", &hi);
    run.put("loadgen.sent", (lo.sent + hi.sent) as f64);
    run.put("loadgen.late_p99_us", hi.late_us(99.0));
    run.put("loadgen.lat_p99_ms", lo.latency_ms(99.0));
    run.put("loadgen.lat_p999_ms", lo.latency_ms(99.9));
    let stats = runtime.stats();
    run.put("runtime.admitted", stats.admitted as f64);
    run.put("runtime.completed", stats.completed as f64);
    run.put("runtime.shed_queue_full", stats.shed_queue_full as f64);
    run.put("runtime.shed_deadline", stats.shed_deadline as f64);
}

/// `retrieval.shard` build, `retrieval.delta` and `retrieval.store`, on a
/// copy of the deployment's builder.
fn writes(run: &mut Run, plan: &Plan) -> Result<(), Error> {
    let setup = run.setup;
    let inputs = &setup.corpus.inputs;
    let (span, built) = run.tracer.span("shard.build", 0, None, || {
        plan.topology.builder().build(black_box(inputs))
    });
    built?;
    run.put("shard.build_s", run.span_s(span));

    let mut builder = setup.deployment.builder.clone();
    let mut current = builder.engine()?;
    let mut post_inputs = inputs.clone();
    let mut touched = Vec::new();
    for (at, delta) in setup.deltas.iter().enumerate() {
        let (_, next) = run.tracer.span("delta.apply", at as u64, None, || {
            builder.apply(black_box(delta))
        });
        let next = next?;
        let shards = current.active_shards().min(next.active_shards());
        touched.push(
            (0..shards)
                .filter(|&s| {
                    !Arc::ptr_eq(
                        current.shard(s).engine_shared(),
                        next.shard(s).engine_shared(),
                    )
                })
                .count() as f64,
        );
        delta.apply_to(&mut post_inputs);
        current = next;
    }
    let (span, rebuilt) = run.tracer.span("delta.rebuild", 0, None, || {
        ShardedDeltaBuilder::new(black_box(&post_inputs), plan.topology.builder())
    });
    let rebuilt = rebuilt?.engine()?;
    let apply_s = run.median_us("delta.apply") / 1e6;
    run.put("delta.apply_s", apply_s);
    run.put("delta.vs_rebuild_ratio", apply_s / run.span_s(span));
    run.put("delta.touched_shards", mean(&touched));
    for request in setup.pool.iter().take(CHECK_REQUESTS) {
        let got = current.retrieve(request).map(RetrievalResponse::logical);
        let want = rebuilt.retrieve(request).map(RetrievalResponse::logical);
        run.tally.record(got.is_ok() && got == want, || {
            format!(
                "query {}: delta-built {got:?}, rebuilt {want:?}",
                request.query
            )
        });
    }

    let path = deploy::out_path(&format!(
        "snapshot-trace-{}-{}.bin",
        plan.name,
        std::process::id()
    ))?;
    let handle = EngineHandle::new(current);
    for i in 0..SNAPSHOTS {
        let (_, saved) = run.tracer.span("store.save", i as u64, None, || {
            handle.save_snapshot(&builder, &path)
        });
        saved?;
    }
    let bytes = std::fs::metadata(&path)?.len() as f64;
    for i in 0..SNAPSHOTS {
        let (_, loaded) = run
            .tracer
            .span("store.load", i as u64, None, || EngineHandle::load(&path));
        let (loaded, _) = loaded?;
        run.tally
            .record(loaded.generation() == handle.generation(), || {
                format!("snapshot reloaded at generation {}", loaded.generation())
            });
    }
    std::fs::remove_file(&path)?;
    let mib = bytes / (1u64 << 20) as f64;
    run.put(
        "store.save_mb_per_s",
        mib / (run.median_us("store.save") / 1e6),
    );
    run.put(
        "store.load_mb_per_s",
        mib / (run.median_us("store.load") / 1e6),
    );
    run.put("store.bytes_per_ad", bytes / builder.corpus_len() as f64);
    Ok(())
}

pub fn run(plan: &Plan, seed: u64, scale: Scale, seconds: f64) -> Result<Outcome, Error> {
    let setup = deploy::setup(seed, scale, plan.topology, DELTAS)?;
    let mut run = Run {
        tracer: Tracer::new(),
        metrics: HashMap::new(),
        tally: Tally::default(),
        setup: &setup,
    };
    kernel(&mut run, seed);
    let (exact, i2a_span) = backends(&mut run, scale)?;
    scans(&mut run, seed, Some(i2a_span));
    request_path(&mut run, exact)?;
    loaded(&mut run, plan, seconds);
    writes(&mut run, plan)?;

    let Run {
        tracer,
        mut metrics,
        tally,
        ..
    } = run;
    metrics.insert(
        "fail_share".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let path = deploy::out_path(&format!("trace-{}.jsonl", plan.name))?;
    tracer.write_jsonl(&path)?;
    println!(
        "# {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            Ok((name, unit, *value))
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(Outcome { tally, metrics })
}
