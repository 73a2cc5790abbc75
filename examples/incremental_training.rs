//! Incremental (day-over-day) training with zero-downtime index refresh,
//! as deployed in production (Section V-C of the paper): each day the
//! model warm-starts from the previous day's parameters and is trained
//! only on the new day's logs, keeping metrics stable while saving the
//! cost of full retraining — and each day's refreshed indices are
//! **published into live serving** through an `EngineHandle` snapshot
//! swap. Worker threads keep retrieving throughout; every response is
//! attributable to the snapshot generation (= serving day) that produced
//! it, and no request ever fails or observes a half-swapped index.
//!
//! Between the daily full refreshes the ad corpus itself churns: ads are
//! on-boarded and taken down while queries keep flowing. The second phase
//! models that with **delta publishes** — `EngineHandle::publish_delta`
//! appends / retires ads through a `ShardedDeltaBuilder` without
//! re-running the full neighbour build, and the example reports the
//! measured delta-publish versus full-rebuild wall clock.
//!
//! The third phase is the **warm restart**: mid-churn, the deployment is
//! saved to a durable snapshot (`EngineHandle::save_snapshot`), a
//! "restarted process" reloads it (`EngineHandle::load`) without
//! re-running any index build, catches up on the delta published after
//! the snapshot, and is verified to serve exactly what the
//! never-restarted deployment serves.
//!
//! ```bash
//! cargo run --release --example incremental_training
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use amcad::core::{build_index_inputs, evaluate_offline, EvalConfig};
use amcad::datagen::{Dataset, WorldConfig};
use amcad::eval::TextTable;
use amcad::model::{AmcadConfig, AmcadModel, Trainer, TrainerConfig};
use amcad::retrieval::{
    EngineHandle, IndexDelta, Request, RetrievalEngine, Retrieve, ShardedDeltaBuilder,
    ShardedEngine,
};

fn main() {
    let seed = 23;
    // Consecutive "days" drawn from the same latent world (different
    // session seeds), so entities stay aligned while behaviour shifts.
    let days: Vec<Dataset> = (0..3)
        .map(|d| {
            let mut w = WorldConfig::tiny(seed);
            w.seed = seed + d as u64; // same sizes, different sessions
            Dataset::generate(&w)
        })
        .collect();

    let trainer = Trainer::new(TrainerConfig {
        batch_size: 16,
        steps: 60,
        seed,
    });
    let eval_cfg = EvalConfig {
        max_queries: 40,
        auc_negatives: 4,
        seed,
    };
    // one export per day feeds both the offline metrics and the index build
    let build_engine = |inputs: &amcad::retrieval::IndexBuildInputs| -> RetrievalEngine {
        RetrievalEngine::builder()
            .top_k(10)
            .threads(2)
            .build(inputs)
            .expect("incremental exports keep the ad indices non-empty")
    };

    // Day 1: cold start, first index build, first published generation.
    let mut model = AmcadModel::new(AmcadConfig::test_tiny(seed), &days[0].graph);
    let mut table = TextTable::new(vec![
        "Day",
        "Train loss (last step)",
        "Next AUC (same day's next-day logs)",
        "Published generation",
    ]);
    let day1_report = trainer.run(&mut model, &days[0].graph);
    let day1_export = model.export(&days[0].graph, seed);
    let day1_metrics = evaluate_offline(&day1_export, &days[0], &eval_cfg);
    let handle = EngineHandle::new(build_engine(&build_index_inputs(&day1_export, &days[0])));
    table.row(vec![
        "day 1".into(),
        format!(
            "{:.4}",
            day1_report.losses.last().copied().unwrap_or(f64::NAN)
        ),
        format!("{:.2}", day1_metrics.next_auc),
        handle.generation().to_string(),
    ]);

    // Days 2..: serving stays up on the handle while training and index
    // rebuilds happen on the side; each rebuild is published with one
    // snapshot swap. The workers tally responses per generation — the
    // attribution record a production audit would keep.
    let request_templates: Vec<Request> = days[0]
        .eval_sessions
        .iter()
        .take(50)
        .map(|s| Request {
            query: s.query.0,
            preclick_items: days[0].preclick_items(s).iter().map(|n| n.0).collect(),
        })
        .collect();
    let stop = AtomicBool::new(false);
    let errors = std::sync::atomic::AtomicUsize::new(0);
    let served_per_generation: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());
    let mut last_inputs: Option<amcad::retrieval::IndexBuildInputs> = None;
    let mut churn_summary = String::new();
    let mut restart_summary = String::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "demo probe workers: the example simulates external request traffic hitting the handle, which by construction runs off the serving runtime"
    )]
    std::thread::scope(|scope| {
        for worker in 0..2usize {
            let handle = &handle;
            let stop = &stop;
            let errors = &errors;
            let served = &served_per_generation;
            let requests = &request_templates;
            scope.spawn(move || {
                let mut i = worker; // stagger the two workers

                // advisory stop flag — seeing it a beat late only serves
                // one extra request, so Relaxed
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = handle.snapshot();
                    match snapshot.retrieve(&requests[i % requests.len()]) {
                        Ok(_) => {
                            *served.lock().entry(snapshot.generation()).or_insert(0) += 1;
                        }
                        Err(_) => {
                            // monotonic tally, read after the scope join — Relaxed
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += 1;
                }
            });
        }

        for (d, dataset) in days.iter().enumerate().skip(1) {
            let report = trainer.run(&mut model, &dataset.graph);
            let export = model.export(&dataset.graph, seed);
            let metrics = evaluate_offline(&export, dataset, &eval_cfg);
            let inputs = build_index_inputs(&export, dataset);
            let generation = handle.publish(build_engine(&inputs));
            last_inputs = Some(inputs);
            table.row(vec![
                format!("day {}", d + 1),
                format!("{:.4}", report.losses.last().copied().unwrap_or(f64::NAN)),
                format!("{:.2}", metrics.next_auc),
                generation.to_string(),
            ]);
            // let the workers serve a while on the fresh generation
            std::thread::sleep(Duration::from_millis(30));
        }

        // -- Intra-day corpus churn: delta publishes, serving never stops --
        // Between full daily refreshes the corpus itself churns. Model it:
        // a deployment serving the last day's corpus minus a hold-out, a
        // delta that on-boards the hold-out and retires a few live ads,
        // and the measured delta-publish vs full-rebuild wall clock.
        let inputs = last_inputs.take().expect("the day loop always runs");
        let ad_ids: Vec<u32> = inputs.ads_qa.ids().to_vec();
        let held_out: Vec<u32> = ad_ids.iter().rev().take(3).copied().collect();
        let retired: Vec<u32> = ad_ids.iter().take(3).copied().collect();
        let mut base = inputs.clone();
        base.ads_qa.retire(|id| held_out.contains(&id));
        base.ads_ia.retire(|id| held_out.contains(&id));
        let mut builder = ShardedDeltaBuilder::new(
            &base,
            ShardedEngine::builder().shards(2).top_k(10).threads(1),
        )
        .expect("the churned corpus seeds a valid delta builder");
        handle.publish(builder.engine().expect("the base generation serves"));
        let delta = IndexDelta {
            added_ads_qa: inputs.ads_qa.filtered(|id| held_out.contains(&id)),
            added_ads_ia: inputs.ads_ia.filtered(|id| held_out.contains(&id)),
            retired_ads: retired.clone(),
        };
        let start = Instant::now();
        let generation = handle
            .publish_delta(&mut builder, &delta)
            .expect("the churn delta is valid");
        let delta_secs = start.elapsed().as_secs_f64();
        // the same post-delta corpus, rebuilt from scratch (timed only —
        // the delta generation is already live)
        let mut post = base.clone();
        delta.apply_to(&mut post);
        let start = Instant::now();
        ShardedEngine::builder()
            .shards(2)
            .top_k(10)
            .threads(1)
            .build(&post)
            .expect("the post-delta corpus rebuilds");
        let full_secs = start.elapsed().as_secs_f64();
        churn_summary = format!(
            "generation {generation}: +{} on-boarded / -{} retired ads published as a delta in \
             {:.2} ms — a full rebuild of the same corpus takes {:.2} ms ({:.1}x)",
            held_out.len(),
            retired.len(),
            delta_secs * 1e3,
            full_secs * 1e3,
            full_secs / delta_secs.max(1e-9),
        );

        // -- Warm restart mid-churn: snapshot, reload, delta catch-up ------
        // Production processes die mid-churn. Save the deployment at the
        // current generation, "restart" by loading the file (no index
        // build), then publish one more churn delta to BOTH sides: the
        // live deployment and the restarted one. The restarted process
        // must end at the same generation serving the same bytes.
        let snap_path =
            std::env::temp_dir().join(format!("amcad-incremental-{}.snap", std::process::id()));
        let start = Instant::now();
        let saved_generation = handle
            .save_snapshot(&builder, &snap_path)
            .expect("the mid-churn snapshot writes");
        let save_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (restarted, mut caught_up) =
            EngineHandle::load(&snap_path).expect("the snapshot loads back");
        let load_secs = start.elapsed().as_secs_f64();
        assert_eq!(restarted.generation(), saved_generation);
        // the delta published after the snapshot: re-onboard the retired
        // ads, take down one of the freshly added ones
        let catch_up = IndexDelta {
            added_ads_qa: inputs.ads_qa.filtered(|id| retired.contains(&id)),
            added_ads_ia: inputs.ads_ia.filtered(|id| retired.contains(&id)),
            retired_ads: vec![held_out[0]],
        };
        handle
            .publish_delta(&mut builder, &catch_up)
            .expect("the live side publishes the catch-up delta");
        restarted
            .publish_delta(&mut caught_up, &catch_up)
            .expect("the restarted side replays the catch-up delta");
        assert_eq!(restarted.generation(), handle.generation());
        for request in request_templates.iter() {
            assert_eq!(
                restarted
                    .retrieve(request)
                    .expect("the restarted side serves"),
                handle.retrieve(request).expect("the live side serves"),
                "the restarted deployment diverged from the live one"
            );
        }
        let snap_bytes = std::fs::metadata(&snap_path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&snap_path);
        restart_summary = format!(
            "saved generation {saved_generation} ({:.1} KiB) in {:.2} ms, reloaded in {:.2} ms \
             (full rebuild: {:.2} ms), caught up to generation {} — all {} probe requests \
             byte-identical to the never-restarted deployment",
            snap_bytes as f64 / 1024.0,
            save_secs * 1e3,
            load_secs * 1e3,
            full_secs * 1e3,
            handle.generation(),
            request_templates.len(),
        );
        std::thread::sleep(Duration::from_millis(30));
        // advisory stop flag (see the worker loop) — Relaxed
        stop.store(true, Ordering::Relaxed);
    });

    println!("{}", table.render());
    println!(
        "Expected shape: metrics stay in the same band from day to day — warm-started incremental"
    );
    println!("training does not degrade the model (Section V-C reports day-over-day stability).");

    println!("\nIntra-day corpus churn (delta publishes, 2 shards):");
    println!("  {churn_summary}");
    println!("  Delta-built rankings are bit-identical to the full rebuild (property-tested),");
    println!("  and shards the churn does not touch reuse their index storage unchanged.");

    println!("\nWarm restart mid-churn (durable snapshot, 2 shards):");
    println!("  {restart_summary}");
    println!("  A restart costs file I/O instead of the O(keys x ads) neighbour build, and the");
    println!("  restored process catches up through the ordinary delta-publish path.");

    println!("\nZero-downtime serving during the rebuild-and-publish loop");
    println!(
        "(generations 1-3: daily full refreshes; 4: churn-base full publish; 5: delta publish;"
    );
    println!("6: post-snapshot catch-up delta):");
    for (generation, count) in served_per_generation.lock().iter() {
        println!("  generation {generation} served {count} requests");
    }
    // the scope join above already ordered every worker's writes — Relaxed
    let errors = errors.load(Ordering::Relaxed);
    assert_eq!(errors, 0, "a published generation failed a request");
    println!("Every response above is attributable to exactly one snapshot generation; the");
    println!("workers never stopped, saw a torn index, or hit an error ({errors} errors)");
    println!("while days were trained, published, and delta-churned.");
}
