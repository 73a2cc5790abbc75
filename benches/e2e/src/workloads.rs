//! The four workloads and the untraced run that produces the end-to-end
//! metrics.
//!
//! Every workload runs the same life cycle — set up, serve, publish
//! deltas, save, restart, check — because every end-to-end metric is
//! reported on every workload. What differs is the topology, what runs
//! beside the reads, and where the measured seconds go (see README.md).
//!
//! A run deploys [`DEPLOYMENTS`] times and measures each deployment in
//! [`ROUNDS_PER_DEPLOYMENT`] rounds, each a short slice of every phase;
//! every metric is the median over all rounds. The reference box is
//! disturbed for about a second about once a minute; a disturbance then
//! spoils one or two rounds of every metric and moves no median, where it
//! would spoil most samples of whichever phase it hit if the phases ran
//! one after the other.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use amcad_retrieval::{EngineHandle, IndexBuildConfig, IndexSet, RetrievalResponse, Retrieve};

use crate::checks::{index_sets_match, oracle_answers, serving_matches_oracle, Served, Tally};
use crate::corpus::{Corpus, Scale};
use crate::deploy::{self, Deployment, Setup, Topology, DELTA_SHARE, INDEX};
use crate::loadgen::{closed_loop, open_loop, PhaseReport};
use crate::requests;
use crate::stats::median;
use crate::Error;

/// A run sets a deployment up this many times and gives each an equal
/// part of the rounds; `setup_s` is the median. How fast a deployment
/// serves depends on where its threads happened to settle (one sharded
/// deployment in ten serves a third slower than the others for its whole
/// life), so the rounds of one deployment are not independent samples;
/// over several deployments a slow one moves no median.
const DEPLOYMENTS: usize = 3;
const ROUNDS_PER_DEPLOYMENT: usize = 3;
const ROUNDS: usize = DEPLOYMENTS * ROUNDS_PER_DEPLOYMENT;
const SNAPSHOTS_PER_ROUND: usize = 3;
/// The closed loop: two client threads, each keeping sixteen requests in
/// flight. Thirty-two outstanding requests keep both runtime workers busy
/// with full batches, so the loop measures capacity; with two requests
/// outstanding it measures wake-up latency instead and is bimodal (36k or
/// 80k requests per second on the reference box, by thread placement).
/// More client threads than cores only add scheduling noise.
const CLOSED_CLIENTS: usize = 2;
const CLOSED_IN_FLIGHT: usize = 16;
/// Shares of `--seconds` given, over all rounds, to the closed loop, the
/// open loop at `rate_lo` and the open loop at `rate_hi`. `slo_share`
/// needs the fewest seconds: it reads 1 unless the system falls behind.
const CLOSED_SHARE: f64 = 0.4;
const LO_SHARE: f64 = 0.45;
const HI_SHARE: f64 = 0.15;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    pub topology: Topology,
    /// Open-loop rates, requests per second.
    pub rate_lo: f64,
    pub rate_hi: f64,
    /// Time one `IndexSet::build` per round: `build_s` is their median.
    /// Without, it is the median of the set-up's index builds.
    pub timed_builds: bool,
    /// Publish each round's delta while the `rate_lo` reads run (which
    /// then last as long as the publish does), not after them.
    pub reads_beside_deltas: bool,
}

/// `rate_lo` is 3-4 % of the closed-loop capacity measured on the
/// reference box (about 135 k/s single, 40 k/s sharded); `rate_hi` is the
/// highest rate at which the pacer's own lateness (p99) stayed below half
/// a send interval, a fifth to a quarter of capacity. See README.md.
const SINGLE_RATES: (f64, f64) = (4_000.0, 25_000.0);
const SHARDED_RATES: (f64, f64) = (1_500.0, 10_000.0);

pub const PLANS: [Plan; 4] = [
    Plan {
        name: "serve_single",
        topology: Topology::SINGLE,
        rate_lo: SINGLE_RATES.0,
        rate_hi: SINGLE_RATES.1,
        timed_builds: false,
        reads_beside_deltas: false,
    },
    Plan {
        name: "serve_sharded",
        topology: Topology::SHARDED,
        rate_lo: SHARDED_RATES.0,
        rate_hi: SHARDED_RATES.1,
        timed_builds: false,
        reads_beside_deltas: false,
    },
    Plan {
        name: "index_build",
        topology: Topology::SINGLE,
        rate_lo: SINGLE_RATES.0,
        rate_hi: SINGLE_RATES.1,
        timed_builds: true,
        reads_beside_deltas: false,
    },
    Plan {
        name: "churn",
        topology: Topology::SHARDED_BESIDE_READS,
        rate_lo: SHARDED_RATES.0,
        rate_hi: SHARDED_RATES.1,
        timed_builds: false,
        reads_beside_deltas: true,
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

/// End-to-end metrics, in the order BENCHMARK.json lists them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("closed_qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("slo_share", "ratio"),
    ("build_s", "s"),
    ("delta_publish_s", "s"),
    ("snapshot_save_s", "s"),
    ("restart_s", "s"),
    ("snapshot_mb", "MiB"),
];

pub struct Outcome {
    pub tally: Tally,
    /// Name, unit and value of every metric of the run's kind.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One phase over all rounds: what was sent, and the per-round samples.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    rate: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    slo_share: Vec<f64>,
    late_p99_us: Vec<f64>,
}

impl Phase {
    fn add(&mut self, tally: &mut Tally, name: &str, report: &PhaseReport) {
        tally.add_phase(name, report);
        self.sent += report.sent;
        self.ok += report.ok;
        self.rate.push(report.ok as f64 / report.elapsed_s);
        self.p50_ms.push(report.latency_ms(50.0));
        self.p99_ms.push(report.latency_ms(99.0));
        self.slo_share
            .push(report.within_slo as f64 / report.sent.max(1) as f64);
        self.late_p99_us.push(report.late_us(99.0));
    }

    fn describe(&self, name: &str) {
        println!(
            "# phase {name}: {} rounds, sent {} ok {}; medians over rounds: {:.0} ok/s, latency p50 {:.4} p99 {:.4} ms, pacer late p99 {:.1} us",
            self.rate.len(),
            self.sent,
            self.ok,
            median(&self.rate),
            median(&self.p50_ms),
            median(&self.p99_ms),
            median(&self.late_p99_us),
        );
    }
}

/// What every deployment of a seed must answer to the checked requests
/// before its deltas and after them, and the ads the deltas retire:
/// computed once, from the generated inputs alone, before anything is
/// deployed.
struct Expected {
    before: Vec<Served>,
    after: Vec<Served>,
    retired: HashSet<u32>,
}

impl Expected {
    fn of(seed: u64, scale: Scale) -> Result<Expected, Error> {
        let mut corpus = Corpus::generate(seed, scale);
        let pool = requests::pool(seed, scale);
        let before = oracle_answers(&corpus.inputs, &pool)?;
        let mut retired = HashSet::new();
        for _ in 0..ROUNDS_PER_DEPLOYMENT {
            let delta = corpus.next_delta(DELTA_SHARE);
            delta.apply_to(&mut corpus.inputs);
            retired.extend(delta.retired_ads);
        }
        Ok(Expected {
            before,
            after: oracle_answers(&corpus.inputs, &pool)?,
            retired,
        })
    }
}

/// The untraced run of one workload: its plan, and every sample taken.
struct Run<'a> {
    plan: &'a Plan,
    seconds: f64,
    expected: Expected,
    tally: Tally,
    closed: Phase,
    lo: Phase,
    hi: Phase,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    publish_s: Vec<f64>,
    save_s: Vec<f64>,
    restart_s: Vec<f64>,
    snapshot_bytes: u64,
    /// The last timed build (`timed_builds`), kept for the closing check.
    built: Option<IndexSet>,
}

impl Run<'_> {
    fn slice(&self, share: f64) -> Duration {
        Duration::from_secs_f64(share * self.seconds / ROUNDS as f64)
    }

    /// One deployment's life: serve, publish a delta, save and restart,
    /// [`ROUNDS_PER_DEPLOYMENT`] times over, between the output checks.
    fn life_cycle(&mut self, deployment: usize, setup: Setup) -> Result<(), Error> {
        let plan = self.plan;
        let Setup {
            corpus,
            pool,
            deltas,
            deployment:
                Deployment {
                    mut builder,
                    handle,
                    runtime,
                    ..
                },
            ..
        } = setup;
        let never = AtomicBool::new(false);
        let (closed_slice, lo_slice, hi_slice) = (
            self.slice(CLOSED_SHARE),
            self.slice(LO_SHARE),
            self.slice(HI_SHARE),
        );
        serving_matches_oracle(
            &mut self.tally,
            "before deltas",
            |r| runtime.retrieve_blocking(r),
            plan.topology.route_len(),
            &self.expected.before,
            &pool,
            &HashSet::new(),
        );

        let path = deploy::out_path(&format!(
            "snapshot-{}-{}.bin",
            plan.name,
            std::process::id()
        ))?;
        let probe = &pool[0];
        for (at, delta) in deltas.iter().enumerate() {
            // each round reads its own stretch of the request pool
            let round = deployment * ROUNDS_PER_DEPLOYMENT + at;
            let offset = round * pool.len() / ROUNDS;
            if plan.timed_builds {
                drop(self.built.take());
                let started = Instant::now();
                self.built = Some(black_box(IndexSet::build(
                    black_box(&corpus.inputs),
                    INDEX,
                )?));
                self.build_s.push(started.elapsed().as_secs_f64());
                self.tally.attempted += 1;
            }

            let report = closed_loop(
                &runtime,
                &pool,
                offset,
                CLOSED_CLIENTS,
                CLOSED_IN_FLIGHT,
                closed_slice,
            );
            self.closed.add(&mut self.tally, "closed", &report);
            let report = open_loop(&runtime, &pool, offset, plan.rate_hi, hi_slice, &never);
            self.hi.add(&mut self.tally, "rate_hi", &report);

            // reads at rate_lo, and this round's delta beside or after them
            let publish_s = &mut self.publish_s;
            let mut publish = || -> Result<(), Error> {
                // what `EngineHandle::publish_delta` does, with the topology's
                // choice of what to serve in between
                let started = Instant::now();
                let next = builder.apply(black_box(delta))?;
                handle.publish_arc(plan.topology.served(next));
                publish_s.push(started.elapsed().as_secs_f64());
                Ok(())
            };
            let report = if plan.reads_beside_deltas {
                let stop = AtomicBool::new(false);
                let limit = Duration::from_secs(60);
                std::thread::scope(|scope| -> Result<PhaseReport, Error> {
                    let reader = scope
                        .spawn(|| open_loop(&runtime, &pool, offset, plan.rate_lo, limit, &stop));
                    let published = publish();
                    // Relaxed: the flag carries no data, only "stop sending"
                    stop.store(true, Ordering::Relaxed);
                    let report = reader.join().expect("reader panicked");
                    published.map(|()| report)
                })?
            } else {
                let report = open_loop(&runtime, &pool, offset, plan.rate_lo, lo_slice, &never);
                publish()?;
                report
            };
            self.lo.add(&mut self.tally, "rate_lo", &report);
            self.tally.attempted += 1;

            // save, then restart from the file: load it and serve one request
            let expected = handle.retrieve(probe).map(RetrievalResponse::logical);
            for _ in 0..SNAPSHOTS_PER_ROUND {
                let started = Instant::now();
                let generation = handle.save_snapshot(&builder, &path)?;
                self.save_s.push(started.elapsed().as_secs_f64());
                self.snapshot_bytes = std::fs::metadata(&path)?.len();
                let started = Instant::now();
                let (restarted, _builder) = EngineHandle::load(&path)?;
                let first = restarted.retrieve(probe).map(RetrievalResponse::logical);
                self.restart_s.push(started.elapsed().as_secs_f64());
                let generations = (handle.generation(), restarted.generation());
                self.tally.record(
                    first == expected && generations == (generation, generation),
                    || format!("round {round}: restart answered {first:?}, expected {expected:?}"),
                );
            }
        }

        // after the last delta: the deployment, and a restart of it, must
        // serve exactly what a from-scratch build of the churned corpus serves
        serving_matches_oracle(
            &mut self.tally,
            "after deltas",
            |r| runtime.retrieve_blocking(r),
            plan.topology.route_len(),
            &self.expected.after,
            &pool,
            &self.expected.retired,
        );
        let (restarted, _builder) = EngineHandle::load(&path)?;
        serving_matches_oracle(
            &mut self.tally,
            "after restart",
            |r| restarted.retrieve(r),
            // `EngineHandle::load` serves a sharded engine on every topology
            plan.topology.shards,
            &self.expected.after,
            &pool,
            &self.expected.retired,
        );
        std::fs::remove_file(&path)?;
        let stats = runtime.stats();
        println!(
            "# runtime of deployment {deployment}: admitted {} completed {} shed_queue_full {} shed_deadline {}",
            stats.admitted, stats.completed, stats.shed_queue_full, stats.shed_deadline
        );
        Ok(())
    }
}

pub fn run(plan: &Plan, seed: u64, scale: Scale, seconds: f64) -> Result<Outcome, Error> {
    let mut run = Run {
        plan,
        seconds,
        expected: Expected::of(seed, scale)?,
        tally: Tally::default(),
        closed: Phase::default(),
        lo: Phase::default(),
        hi: Phase::default(),
        setup_s: Vec::new(),
        build_s: Vec::new(),
        publish_s: Vec::new(),
        save_s: Vec::new(),
        restart_s: Vec::new(),
        snapshot_bytes: 0,
        built: None,
    };
    for deployment in 0..DEPLOYMENTS {
        let started = Instant::now();
        let setup = deploy::setup(seed, scale, plan.topology, ROUNDS_PER_DEPLOYMENT)?;
        run.setup_s.push(started.elapsed().as_secs_f64());
        if !plan.timed_builds {
            run.build_s.push(setup.build_s);
        }
        run.life_cycle(deployment, setup)?;
    }
    // memory is read before the closing check builds anything: the peak is
    // then what the deployments themselves, their deltas and restarts left
    let rss_mb = peak_rss_mb();
    if let Some(built) = &run.built {
        // the offline stage: one thread builds what two threads build
        let corpus = Corpus::generate(seed, scale);
        let serial = IndexSet::build(
            &corpus.inputs,
            IndexBuildConfig {
                threads: 1,
                ..INDEX
            },
        )?;
        index_sets_match(&mut run.tally, built, &serial);
    }

    run.closed.describe("closed");
    run.lo.describe("rate_lo");
    run.hi.describe("rate_hi");
    let measured = [
        ("setup_s", &run.setup_s),
        ("closed_qps", &run.closed.rate),
        ("lat_p50_ms", &run.lo.p50_ms),
        ("slo_share", &run.hi.slo_share),
        ("build_s", &run.build_s),
        ("delta_publish_s", &run.publish_s),
        ("snapshot_save_s", &run.save_s),
        ("restart_s", &run.restart_s),
    ];
    for (name, samples) in measured {
        let shown: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
        println!("# samples {name} ({}): {}", samples.len(), shown.join(" "));
    }
    let values = [
        median(&run.setup_s),
        rss_mb,
        median(&run.closed.rate),
        median(&run.lo.p50_ms),
        median(&run.hi.slo_share),
        median(&run.build_s),
        median(&run.publish_s),
        median(&run.save_s),
        median(&run.restart_s),
        run.snapshot_bytes as f64 / (1u64 << 20) as f64,
    ];
    Ok(Outcome {
        tally: run.tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
    })
}
