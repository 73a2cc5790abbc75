//! Table IX — offline runtime versus graph size: training plus MNN index
//! construction per ANN backend.
//!
//! The paper trains on log windows of 1 hour / 1 day / 3 days / 7 days and
//! reports node count, edge count, iteration count and total runtime,
//! observing near-linear scaling of runtime with the number of edges.  This
//! binary runs the same ladder at laptop scale; the number of training
//! iterations is proportional to the number of sessions (≈ one pass over
//! the data), so runtime should grow roughly linearly with graph size.
//! The offline stage the paper distributes over MNN workers — inverted
//! index construction — is timed per backend (exact scan vs IVF vs HNSW vs
//! quantised postings) through the same `IndexSet::build` API, showing
//! where approximate indexing starts paying off as the candidate sets
//! grow; a backend × knob sweep (`ef_search` for HNSW, `rerank_k` for the
//! quantised backend) then puts each approximate backend's recall@k
//! against exact next to its build time — the recall/build-time frontier
//! in one table.
//!
//! The rest reports what a build width or the incremental path changes,
//! all on the largest rung's inputs: a `ShardedEngine` at 1 / 2 / 4 shards
//! whose `4 + 2·shards` index builds — the key-side indices once, each
//! shard's Q2A and I2A — run 1 / 2 / 4 threads wide (every index build is
//! independent, so more build threads cut wall clock without changing a
//! single byte of the result); a ~10% corpus churn applied as a delta
//! publish (`EngineHandle::publish_delta`) versus rebuilding the
//! post-delta corpus from scratch; a warm restart from a snapshot versus
//! the cold build; and the quantised bytes/ad against the full-precision
//! layout.
//!
//! Serving latency is not timed here: the request loop reads posting
//! prefixes of the same length whichever backend or build width produced
//! them, so `fig9_serving_latency` times it once per deployment shape.

use std::time::Instant;

use amcad_bench::json::{write_bench_json, Json};
use amcad_bench::Scale;
use amcad_core::build_index_inputs;
use amcad_datagen::{Dataset, WorldConfig};
use amcad_eval::TextTable;
use amcad_mnn::{HnswConfig, IndexBackend, IvfConfig, QuantConfig, QuantIndex};
use amcad_model::{AmcadConfig, AmcadModel, Trainer, TrainerConfig};
use amcad_retrieval::{
    EngineHandle, IndexBuildConfig, IndexBuildInputs, IndexDelta, IndexSet, Request,
    RetrievalEngine, Retrieve, ShardedDeltaBuilder, ShardedEngine,
};

fn main() {
    let scale = Scale::from_env();
    let seed = 20221111;
    println!(
        "== Table IX: offline runtime vs graph size (scale = {}) ==\n",
        scale.label()
    );

    // Scale the ladder down further for the tiny preset so the whole sweep
    // stays fast; the *ratios* between rungs are what matters.
    let base = scale.world(seed);
    let ladder: Vec<(&str, WorldConfig)> = vec![
        ("1 hour", base.scaled(1.0 / 8.0)),
        ("1 day", base.clone()),
        ("3 days", base.scaled(2.0)),
        ("7 days", base.scaled(4.0)),
    ];

    let fd = scale.feature_dim();
    let batch = scale.trainer(seed).batch_size;
    let mut table = TextTable::new(vec![
        "Logs",
        "#Nodes",
        "#Edges",
        "#Iterations",
        "Train (s)",
        "Edges / second",
        "Index exact (s)",
        "Index IVF (s)",
        "Index HNSW (s)",
        "Index Quant (s)",
    ]);
    let mut prev: Option<(usize, f64)> = None;
    let mut largest_rung: Option<(Dataset, IndexBuildInputs)> = None;
    let mut ladder_json: Vec<Json> = Vec::new();
    for (label, world) in ladder {
        let dataset = Dataset::generate(&world);
        let stats = dataset.graph.stats();
        // one pass over the sessions: iterations ∝ sessions / batch
        let steps = (world.train_sessions / batch).max(10);
        let trainer_cfg = TrainerConfig {
            batch_size: batch,
            steps,
            seed,
        };
        let mut model = AmcadModel::new(AmcadConfig::amcad(fd, seed), &dataset.graph);
        let start = Instant::now();
        Trainer::new(trainer_cfg).run(&mut model, &dataset.graph);
        let secs = start.elapsed().as_secs_f64();

        // Offline MNN stage: same embeddings, both index backends.
        let export = model.export(&dataset.graph, seed);
        let inputs = build_index_inputs(&export, &dataset);
        let time_build = |backend: IndexBackend| {
            // single-threaded for BOTH backends: only the exact scan has a
            // parallel bulk path, so equal thread counts keep the columns
            // an algorithmic comparison rather than a threading one
            let config = IndexBuildConfig {
                top_k: 20,
                threads: 1,
                backend,
            };
            let start = Instant::now();
            let set = IndexSet::build(&inputs, config).expect("ladder inputs are duplicate-free");
            let secs = start.elapsed().as_secs_f64();
            assert!(set.total_keys() > 0);
            secs
        };
        let exact_secs = time_build(IndexBackend::Exact);
        let ivf_secs = time_build(IndexBackend::Ivf(IvfConfig::default()));
        let hnsw_secs = time_build(IndexBackend::Hnsw(HnswConfig::default()));
        let quant_secs = time_build(IndexBackend::Quant(QuantConfig::default()));

        table.row(vec![
            label.to_string(),
            stats.total_nodes().to_string(),
            stats.total_edges().to_string(),
            steps.to_string(),
            format!("{secs:.1}"),
            format!("{:.0}", stats.total_edges() as f64 / secs.max(1e-9)),
            format!("{exact_secs:.2}"),
            format!("{ivf_secs:.2}"),
            format!("{hnsw_secs:.2}"),
            format!("{quant_secs:.2}"),
        ]);
        ladder_json.push(Json::obj(vec![
            ("logs", Json::from(label)),
            ("nodes", Json::from(stats.total_nodes())),
            ("edges", Json::from(stats.total_edges())),
            ("iterations", Json::from(steps)),
            ("train_s", Json::from(secs)),
            (
                "edges_per_s",
                Json::from(stats.total_edges() as f64 / secs.max(1e-9)),
            ),
            ("index_exact_s", Json::from(exact_secs)),
            ("index_ivf_s", Json::from(ivf_secs)),
            ("index_hnsw_s", Json::from(hnsw_secs)),
            ("index_quant_s", Json::from(quant_secs)),
        ]));
        if let Some((prev_edges, prev_secs)) = prev {
            eprintln!(
                "{label}: edges x{:.2}, runtime x{:.2}",
                stats.total_edges() as f64 / prev_edges as f64,
                secs / prev_secs
            );
        }
        prev = Some((stats.total_edges(), secs));
        largest_rung = Some((dataset, inputs));
    }
    println!("{}", table.render());
    let (dataset, inputs) = largest_rung.expect("the ladder always has rungs");
    let requests: Vec<Request> = dataset
        .eval_sessions
        .iter()
        .take(500)
        .map(|s| Request {
            query: s.query.0,
            preclick_items: dataset.preclick_items(s).iter().map(|n| n.0).collect(),
        })
        .collect();

    // -- Backend × knob: the recall/build-time frontier -------------------
    // The approximate backends trade posting-list recall for build work:
    // IVF probes nprobe clusters per key, HNSW walks an ef_search-wide
    // graph beam, and the quantised backend reranks the top `rerank_k`
    // PQ-approximate candidates exactly. All knobs act at *index-build*
    // time (posting lists are static at serving time), so the frontier
    // pairs each configuration's build wall clock with its ad-side
    // recall@k against the exact reference.
    println!("== Backend x knob recall/build-time frontier (largest rung) ==\n");
    let top_k = 20usize;
    let widest_knob = "ef=128";
    let frontier_backends: Vec<(&'static str, IndexBackend)> = vec![
        ("-", IndexBackend::Exact),
        ("nprobe=4/16", IndexBackend::Ivf(IvfConfig::default())),
        (
            "ef=8",
            IndexBackend::Hnsw(HnswConfig::default().with_ef_search(8)),
        ),
        (
            "ef=32",
            IndexBackend::Hnsw(HnswConfig::default().with_ef_search(32)),
        ),
        (
            widest_knob,
            IndexBackend::Hnsw(HnswConfig::default().with_ef_search(128)),
        ),
        (
            "rerank=16",
            IndexBackend::Quant(QuantConfig {
                ksub: 16,
                train_iters: 8,
                rerank_k: 16,
                seed: 13,
            }),
        ),
        ("rerank=48", IndexBackend::Quant(QuantConfig::default())),
    ];
    let mut frontier = TextTable::new(vec!["Backend", "Knob", "Build (s)", "Recall@20"]);
    // the exact row doubles as the recall reference, so the most
    // expensive build in the sweep happens exactly once
    let mut exact_engine: Option<RetrievalEngine> = None;
    let mut hnsw_widest_recall = 0.0f64;
    let mut frontier_json: Vec<Json> = Vec::new();
    for (knob, backend) in frontier_backends {
        let start = Instant::now();
        let engine = RetrievalEngine::builder()
            .index(IndexBuildConfig {
                top_k,
                threads: 1,
                backend,
            })
            .build(&inputs)
            .expect("ladder inputs always build a valid engine");
        let build_secs = start.elapsed().as_secs_f64();
        let recall = match &exact_engine {
            None => 1.0, // the exact reference against itself
            Some(reference) => engine
                .indexes()
                .ad_recall_against(reference.indexes(), top_k),
        };
        assert!(
            (0.0..=1.0 + 1e-12).contains(&recall),
            "recall must be a fraction, got {recall}"
        );
        if knob == widest_knob {
            hnsw_widest_recall = recall;
        }
        frontier.row(vec![
            backend.label().to_string(),
            knob.to_string(),
            format!("{build_secs:.2}"),
            format!("{recall:.3}"),
        ]);
        frontier_json.push(Json::obj(vec![
            ("backend", Json::from(backend.label())),
            ("knob", Json::from(knob)),
            ("build_s", Json::from(build_secs)),
            ("recall_at_20", Json::from(recall)),
        ]));
        if backend == IndexBackend::Exact {
            exact_engine = Some(engine);
        }
    }
    println!("{}", frontier.render());
    // the CI smoke run pins the quality end of the frontier: a wide beam
    // must keep most of the exact neighbours
    assert!(
        hnsw_widest_recall >= 0.5,
        "HNSW {widest_knob} should recover most exact neighbours, got {hnsw_widest_recall:.3}"
    );
    println!("Frontier note: recall is measured over the ad-side (Q2A + I2A) posting lists");
    println!("against the exact build; the request loop reads same-length posting lists");
    println!("whatever backend built them (fig9 times it), so the knobs buy *build* time —");
    println!("the paper's distributed-MNN stage — at a measured recall cost.\n");

    // -- Parallel sharded build: shards × build-pool width ----------------
    // The 4 + 2·shards index builds of a cold build are independent, so
    // the build pool cuts wall clock (up to the core count — speedups on a
    // single-core runner honestly report ≈1x) while producing
    // byte-identical engines.
    println!("\n== Parallel sharded build (largest rung, single-threaded per index) ==\n");
    let build_widths = [1usize, 2, 4];
    let mut build_table = TextTable::new(vec![
        "Shards",
        "Build 1T (s)",
        "Build 2T (s)",
        "Build 4T (s)",
        "Speedup 2T",
        "Speedup 4T",
    ]);
    let mut speedup_2t_at_4_shards = 1.0;
    let mut build_json: Vec<Json> = Vec::new();
    for shards in [1usize, 2, 4] {
        let timed_build = |build_threads: usize| {
            let start = Instant::now();
            let engine = ShardedEngine::builder()
                .shards(shards)
                .top_k(20)
                .threads(1) // single-threaded per index: the sweep isolates the build pool
                .build_threads(build_threads)
                .build(&inputs)
                .expect("ladder inputs always build a valid sharded engine");
            (start.elapsed().as_secs_f64(), engine.active_shards())
        };
        let times: Vec<f64> = build_widths.iter().map(|&w| timed_build(w).0).collect();
        if shards == 4 {
            speedup_2t_at_4_shards = times[0] / times[1].max(1e-9);
        }
        build_table.row(vec![
            shards.to_string(),
            format!("{:.2}", times[0]),
            format!("{:.2}", times[1]),
            format!("{:.2}", times[2]),
            format!("{:.2}x", times[0] / times[1].max(1e-9)),
            format!("{:.2}x", times[0] / times[2].max(1e-9)),
        ]);
        build_json.push(Json::obj(vec![
            ("shards", Json::from(shards)),
            ("build_1t_s", Json::from(times[0])),
            ("build_2t_s", Json::from(times[1])),
            ("build_4t_s", Json::from(times[2])),
            ("speedup_2t", Json::from(times[0] / times[1].max(1e-9))),
            ("speedup_4t", Json::from(times[0] / times[2].max(1e-9))),
        ]));
    }
    println!("{}", build_table.render());
    println!(
        "Measured build-time speedup with 2 build threads (4 shards): {speedup_2t_at_4_shards:.2}x on {} core(s).\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // -- Delta publish vs full rebuild (largest rung) ---------------------
    // The paper's corpus churns daily while queries keep flowing; a delta
    // publish updates only the ad-side postings the churn touches instead
    // of re-running the whole O(keys × ads) neighbour build. Rankings are
    // property-tested bit-identical to the full rebuild, so the wall
    // clock below is the entire trade.
    println!("== Delta publish vs full rebuild (largest rung, ~10% daily churn) ==\n");
    let ad_ids: Vec<u32> = inputs.ads_qa.ids().to_vec();
    let churn = (ad_ids.len() / 20).max(1);
    // generation 1 serves the corpus minus a 5% hold-out; the delta adds
    // the hold-out back and retires 5% of the generation-1 ads
    let held_out: Vec<u32> = ad_ids.iter().rev().take(churn).copied().collect();
    let retired: Vec<u32> = ad_ids.iter().take(churn).copied().collect();
    let mut gen1_inputs = inputs.clone();
    gen1_inputs.ads_qa.retire(|id| held_out.contains(&id));
    gen1_inputs.ads_ia.retire(|id| held_out.contains(&id));
    let delta = IndexDelta {
        added_ads_qa: inputs.ads_qa.filtered(|id| held_out.contains(&id)),
        added_ads_ia: inputs.ads_ia.filtered(|id| held_out.contains(&id)),
        retired_ads: retired,
    };
    let mut delta_table = TextTable::new(vec![
        "Shards",
        "Corpus (ads)",
        "Churn (ads)",
        "Delta publish (s)",
        "Full rebuild (s)",
        "Speedup",
    ]);
    let mut delta_json: Vec<Json> = Vec::new();
    for shards in [1usize, 2, 4] {
        let topology = || {
            ShardedEngine::builder()
                .shards(shards)
                .top_k(20)
                .threads(1)
                .build_threads(1)
        };
        let mut builder = ShardedDeltaBuilder::new(&gen1_inputs, topology())
            .expect("ladder inputs always seed a valid delta builder");
        let handle = EngineHandle::new(builder.engine().expect("generation 1 serves"));
        let start = Instant::now();
        let generation = handle
            .publish_delta(&mut builder, &delta)
            .expect("the churn delta is valid");
        let delta_secs = start.elapsed().as_secs_f64();
        assert_eq!(generation, 2, "the delta publish bumps the generation");
        // the same post-delta corpus, rebuilt from scratch
        let mut post = gen1_inputs.clone();
        delta.apply_to(&mut post);
        let start = Instant::now();
        let rebuilt = topology()
            .build(&post)
            .expect("the post-delta corpus rebuilds");
        let full_secs = start.elapsed().as_secs_f64();
        assert!(rebuilt.active_shards() > 0);
        assert!(
            delta_secs < full_secs,
            "the delta publish ({delta_secs:.3}s) must beat the full rebuild ({full_secs:.3}s)"
        );
        delta_table.row(vec![
            shards.to_string(),
            post.ads_qa.len().to_string(),
            (churn * 2).to_string(),
            format!("{delta_secs:.3}"),
            format!("{full_secs:.3}"),
            format!("{:.1}x", full_secs / delta_secs.max(1e-9)),
        ]);
        delta_json.push(Json::obj(vec![
            ("shards", Json::from(shards)),
            ("corpus_ads", Json::from(post.ads_qa.len())),
            ("churn_ads", Json::from(churn * 2)),
            ("delta_publish_s", Json::from(delta_secs)),
            ("full_rebuild_s", Json::from(full_secs)),
            ("speedup", Json::from(full_secs / delta_secs.max(1e-9))),
        ]));
    }
    println!("{}", delta_table.render());
    println!("Delta note: the publish touches only the shards the churned ads hash to —");
    println!("untouched shards keep their Arc'd indices pointer-identical across the");
    println!("generation swap — and delta-built rankings equal a from-scratch rebuild");
    println!("of the post-delta corpus exactly (property-tested at shards 1/2/4).\n");

    // -- Warm restart from a snapshot vs cold rebuild ---------------------
    // A restart at corpus scale otherwise re-runs the full O(keys × ads)
    // neighbour build; the snapshot store turns it into file I/O plus
    // engine assembly. Both paths end at the same generation serving the
    // same bytes (property-tested in amcad-retrieval), so wall clock and
    // file size are the entire story.
    println!("== Warm restart from snapshot vs cold rebuild (largest rung) ==\n");
    let mut restart_table = TextTable::new(vec![
        "Shards",
        "Cold build (s)",
        "Save (s)",
        "Snapshot (KiB)",
        "Warm restart (s)",
        "Speedup",
    ]);
    let mut restart_json: Vec<Json> = Vec::new();
    for shards in [1usize, 2, 4] {
        let topology = || {
            ShardedEngine::builder()
                .shards(shards)
                .top_k(20)
                .threads(1)
                .build_threads(1)
        };
        let start = Instant::now();
        let builder = ShardedDeltaBuilder::new(&inputs, topology())
            .expect("ladder inputs always seed a valid delta builder");
        let handle = EngineHandle::new(builder.engine().expect("the cold build serves"));
        let cold_secs = start.elapsed().as_secs_f64();
        let snap_path =
            std::env::temp_dir().join(format!("amcad-table9-{}-{shards}.snap", std::process::id()));
        let start = Instant::now();
        handle
            .save_snapshot(&builder, &snap_path)
            .expect("the snapshot writes");
        let save_secs = start.elapsed().as_secs_f64();
        let snap_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());
        let start = Instant::now();
        let (warm, _warm_builder) =
            EngineHandle::load(&snap_path).expect("the snapshot loads back");
        let warm_secs = start.elapsed().as_secs_f64();
        assert_eq!(warm.generation(), handle.generation());
        let probe = Request {
            query: requests[0].query,
            preclick_items: requests[0].preclick_items.clone(),
        };
        assert_eq!(
            warm.retrieve(&probe).expect("the restored engine serves"),
            handle.retrieve(&probe).expect("the cold engine serves"),
            "warm restart must serve identically to the cold build"
        );
        assert!(
            warm_secs < cold_secs,
            "warm restart ({warm_secs:.3}s) must beat the cold rebuild ({cold_secs:.3}s)"
        );
        let _ = std::fs::remove_file(&snap_path);
        restart_table.row(vec![
            shards.to_string(),
            format!("{cold_secs:.3}"),
            format!("{save_secs:.3}"),
            format!("{:.1}", snap_bytes as f64 / 1024.0),
            format!("{warm_secs:.3}"),
            format!("{:.1}x", cold_secs / warm_secs.max(1e-9)),
        ]);
        restart_json.push(Json::obj(vec![
            ("shards", Json::from(shards)),
            ("cold_build_s", Json::from(cold_secs)),
            ("save_s", Json::from(save_secs)),
            ("snapshot_bytes", Json::from(snap_bytes)),
            ("warm_restart_s", Json::from(warm_secs)),
            ("speedup", Json::from(cold_secs / warm_secs.max(1e-9))),
        ]));
    }
    println!("{}", restart_table.render());
    println!("Restart note: the snapshot stores the key-side state once per deployment and");
    println!("each shard's ad slices; loading re-establishes the Arc sharing and skips the");
    println!("neighbour build, so the restored process resumes at the saved generation and");
    println!("catches up on newer deltas through the ordinary publish path.\n");

    // -- Ad-side memory footprint: quantised vs full-precision ------------
    // The quantised-postings subsystem keeps one u8 code plus one f32
    // weight per manifold component per ad instead of f64 coordinates —
    // the memory term that decides how many ads fit a serving replica.
    // The ratio is a structural property of the layout (not a sampled
    // timing), so the CI gate can pin it exactly.
    println!("== Ad-side memory footprint: quantised vs full-precision (largest rung) ==\n");
    let quant_index = QuantIndex::build(inputs.ads_qa.clone(), QuantConfig::default());
    let quantised_bpa = quant_index.quantised_bytes_per_ad();
    let full_bpa = quant_index.full_precision_bytes_per_ad();
    let ratio = full_bpa as f64 / quantised_bpa.max(1) as f64;
    let mut footprint = TextTable::new(vec![
        "Ads",
        "Quantised (B/ad)",
        "Full precision (B/ad)",
        "Ratio",
    ]);
    footprint.row(vec![
        inputs.ads_qa.len().to_string(),
        quantised_bpa.to_string(),
        full_bpa.to_string(),
        format!("{ratio:.1}x"),
    ]);
    println!("{}", footprint.render());
    assert!(
        ratio >= 4.0,
        "quantised codes must be at least 4x smaller than full-precision \
         coordinates, got {ratio:.2}x ({quantised_bpa} vs {full_bpa} bytes/ad)"
    );
    println!("Footprint note: codes replace the per-ad coordinates in the approximate scan;");
    println!("the exact rerank touches full-precision points for only rerank_k candidates");
    println!("per query, so the working set shrinks by the ratio above while served");
    println!("rankings stay pinned to the exact backend by the corpus-wide-rerank tests.\n");

    let json_path = write_bench_json(
        "table9",
        &Json::obj(vec![
            ("bench", Json::from("table9_scalability")),
            ("scale", Json::from(scale.label())),
            ("ladder", Json::Arr(ladder_json)),
            ("frontier", Json::Arr(frontier_json)),
            ("parallel_build", Json::Arr(build_json)),
            ("delta_vs_rebuild", Json::Arr(delta_json)),
            ("warm_restart", Json::Arr(restart_json)),
            (
                "memory_footprint",
                Json::obj(vec![
                    ("ads", Json::from(inputs.ads_qa.len())),
                    ("quantised_bytes_per_ad", Json::from(quantised_bpa)),
                    ("full_precision_bytes_per_ad", Json::from(full_bpa)),
                    ("ratio", Json::from(ratio)),
                ]),
            ),
        ]),
    )
    .expect("the bench artefact writes");
    println!("Machine-readable artefact: {}\n", json_path.display());

    println!("Paper (Table IX): 0.5h → 6.2h → 17.3h → 35h for 0.18B → 5.3B → 16.1B → 30.8B edges.");
    println!("Shape to check: training runtime grows close to linearly with the number of edges /");
    println!(
        "iterations, and the exact index build grows quadratically with candidate-set size while"
    );
    println!("IVF probes only a fraction of each candidate set per key.");
}
